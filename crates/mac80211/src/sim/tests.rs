use super::*;
use crate::frame::{DsBits, SequenceControl};
use wn_sim::trace::DropReason;
use wn_sim::Simulation;

/// Predicate for a transmission of the given frame kind — the typed
/// replacement for substring-matching the trace.
fn tx_of(kind: FrameKind) -> impl Fn(&TraceEvent) -> bool {
    move |e| matches!(e, TraceEvent::Tx { kind: k, .. } if *k == kind)
}

fn world(n: usize, spacing_m: f64) -> Simulation<WlanWorld> {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 7;
    let mut w = WlanWorld::new(cfg);
    for i in 0..n {
        w.add_station(
            MacAddr::station(i as u32),
            Point::new(spacing_m * i as f64, 0.0),
            Box::new(NullUpper),
        );
    }
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    sim
}

fn data_frame(from: u32, to: u32, len: usize) -> Frame {
    Frame::data(
        DsBits::Ibss,
        MacAddr::station(to),
        MacAddr::station(from),
        MacAddr::random_ibss_bssid(1),
        SequenceControl::default(),
        vec![0xAA; len],
    )
}

fn inject(sim: &mut Simulation<WlanWorld>, at_ms: u64, station: StationId, frame: Frame) {
    inject_at(sim, SimTime::from_millis(at_ms), station, frame);
}

#[test]
fn single_frame_delivered_and_acked() {
    let mut sim = world(2, 10.0);
    inject(&mut sim, 1, 0, data_frame(0, 1, 500));
    sim.run_until(SimTime::from_secs(1));
    let w = sim.world();
    assert_eq!(w.stats(0).tx_completions, 1);
    assert_eq!(w.stats(0).tx_failures, 0);
    assert_eq!(w.stats(1).rx_accepted, 1);
    assert_eq!(w.stats(1).rx_payload_bytes, 500);
    // Two frames on the air: data + ACK.
    assert_eq!(w.stats(0).tx_frames, 1);
    assert_eq!(w.stats(1).tx_frames, 1);
}

/// A legacy station that queues a unicast QoS data MSDU runs it as an
/// ordinary MSDU attempt (ACK, retries) and resolves it: the exchange
/// follows the station, not the frame subtype.
#[test]
fn legacy_station_resolves_a_qos_data_msdu() {
    let mut sim = world(2, 10.0);
    let mut f = data_frame(0, 1, 500);
    f.fc.subtype = Subtype::QosData;
    inject(&mut sim, 1, 0, f);
    sim.run_until(SimTime::from_secs(1));
    let w = sim.world();
    assert_eq!(w.stats(0).tx_completions + w.stats(0).tx_failures, 1);
    assert_eq!(w.pending_msdus(0), 0);
    assert_eq!(w.stats(0).tx_completions, 1);
    assert_eq!(w.stats(1).rx_accepted, 1);
}

#[test]
fn broadcast_needs_no_ack() {
    let mut sim = world(3, 10.0);
    let f = Frame::data(
        DsBits::Ibss,
        MacAddr::BROADCAST,
        MacAddr::station(0),
        MacAddr::random_ibss_bssid(1),
        SequenceControl::default(),
        vec![1; 100],
    );
    inject(&mut sim, 1, 0, f);
    sim.run_until(SimTime::from_secs(1));
    let w = sim.world();
    assert_eq!(w.stats(0).tx_completions, 1);
    assert_eq!(w.stats(1).rx_accepted, 1);
    assert_eq!(w.stats(2).rx_accepted, 1);
    // No ACK came back.
    assert_eq!(w.stats(1).tx_frames, 0);
    assert_eq!(w.stats(2).tx_frames, 0);
}

#[test]
fn out_of_range_peer_fails_after_retries() {
    let mut sim = world(2, 50_000.0);
    inject(&mut sim, 1, 0, data_frame(0, 1, 500));
    sim.run_until(SimTime::from_secs(2));
    let w = sim.world();
    assert_eq!(w.stats(0).tx_completions, 0);
    assert_eq!(w.stats(0).tx_failures, 1);
    // Initial + 7 short retries.
    assert_eq!(w.stats(0).tx_frames, 8);
    assert_eq!(w.stats(1).rx_accepted, 0);
}

#[test]
fn many_frames_all_delivered() {
    let mut sim = world(2, 10.0);
    for i in 0..50 {
        inject(&mut sim, 1 + i, 0, data_frame(0, 1, 1000));
    }
    sim.run_until(SimTime::from_secs(5));
    let w = sim.world();
    assert_eq!(w.stats(0).tx_completions, 50);
    assert_eq!(w.stats(1).rx_accepted, 50);
    assert_eq!(w.stats(1).rx_payload_bytes, 50_000);
}

#[test]
fn two_contending_senders_both_finish() {
    let mut sim = world(3, 10.0);
    // Stations 0 and 2 both flood station 1 starting simultaneously.
    for i in 0..30 {
        inject(&mut sim, 1 + i, 0, data_frame(0, 1, 800));
        inject(&mut sim, 1 + i, 2, data_frame(2, 1, 800));
    }
    sim.run_until(SimTime::from_secs(10));
    let w = sim.world();
    assert_eq!(w.stats(0).tx_completions + w.stats(0).tx_failures, 30);
    assert_eq!(w.stats(2).tx_completions + w.stats(2).tx_failures, 30);
    assert_eq!(
        w.stats(0).tx_completions,
        30,
        "close range: all should succeed"
    );
    assert_eq!(w.stats(2).tx_completions, 30);
    assert_eq!(w.stats(1).rx_accepted, 60);
}

#[test]
fn fragmentation_reassembles() {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.frag_threshold = 400;
    cfg.seed = 3;
    let mut w = WlanWorld::new(cfg);
    w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    w.add_station(
        MacAddr::station(1),
        Point::new(5.0, 0.0),
        Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    inject(&mut sim, 1, 0, data_frame(0, 1, 1000));
    sim.run_until(SimTime::from_secs(1));
    let w = sim.world();
    // 1000 B splits into 400+400+200: three fragments, three ACKs.
    assert_eq!(w.stats(0).tx_frames, 3);
    assert_eq!(w.stats(1).tx_frames, 3);
    assert_eq!(w.stats(0).tx_completions, 1);
    // Receiver sees ONE reassembled MSDU of the full kilobyte.
    assert_eq!(w.stats(1).rx_accepted, 1);
    assert_eq!(w.stats(1).rx_payload_bytes, 1000);
}

#[test]
fn rts_cts_exchange_happens_below_threshold() {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.rts_threshold = 100;
    cfg.seed = 5;
    let mut w = WlanWorld::new(cfg);
    w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    w.add_station(
        MacAddr::station(1),
        Point::new(5.0, 0.0),
        Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    inject(&mut sim, 1, 0, data_frame(0, 1, 600));
    sim.run_until(SimTime::from_secs(1));
    let w = sim.world();
    assert_eq!(w.stats(0).tx_completions, 1);
    // Sender: RTS + DATA; receiver: CTS + ACK.
    assert_eq!(w.stats(0).tx_frames, 2);
    assert_eq!(w.stats(1).tx_frames, 2);
    // Protocol order asserted on typed event variants, not substrings.
    assert!(w
        .trace
        .happened_before_events(tx_of(FrameKind::Rts), tx_of(FrameKind::Cts)));
    assert!(w
        .trace
        .happened_before_events(tx_of(FrameKind::Cts), tx_of(FrameKind::Data)));
}

#[test]
fn hidden_terminal_collisions_without_rts() {
    // A --- R --- B: A and B hear R but not each other.
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 11;
    cfg.capture = false;
    let mut w = WlanWorld::new(cfg);
    let a = w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    let r = w.add_station(
        MacAddr::station(1),
        Point::new(120.0, 0.0),
        Box::new(NullUpper),
    );
    let b = w.add_station(
        MacAddr::station(2),
        Point::new(240.0, 0.0),
        Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    for i in 0..40 {
        inject(&mut sim, 1 + i * 3, a, data_frame(0, 1, 1400));
        inject(&mut sim, 1 + i * 3, b, data_frame(2, 1, 1400));
    }
    sim.run_until(SimTime::from_secs(20));
    let w = sim.world();
    let retries = w.stats(a).retries + w.stats(b).retries;
    assert!(
        retries > 10,
        "hidden terminals should collide repeatedly, got {retries} retries"
    );
    let _ = r;
}

#[test]
fn rts_cts_rescues_hidden_terminals() {
    let run = |rts: usize| -> (u64, u64) {
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = 11;
        cfg.capture = false;
        cfg.rts_threshold = rts;
        let mut w = WlanWorld::new(cfg);
        let a = w.add_station(
            MacAddr::station(0),
            Point::new(0.0, 0.0),
            Box::new(NullUpper),
        );
        let _r = w.add_station(
            MacAddr::station(1),
            Point::new(120.0, 0.0),
            Box::new(NullUpper),
        );
        let b = w.add_station(
            MacAddr::station(2),
            Point::new(240.0, 0.0),
            Box::new(NullUpper),
        );
        let mut sim = Simulation::new(w);
        boot(&mut sim);
        for i in 0..40 {
            inject(&mut sim, 1 + i * 3, a, data_frame(0, 1, 1400));
            inject(&mut sim, 1 + i * 3, b, data_frame(2, 1, 1400));
        }
        sim.run_until(SimTime::from_secs(30));
        let w = sim.world();
        (
            w.stats(a).tx_completions + w.stats(b).tx_completions,
            w.stats(a).tx_failures + w.stats(b).tx_failures,
        )
    };
    let (no_rts_ok, no_rts_fail) = run(usize::MAX);
    let (rts_ok, rts_fail) = run(0);
    // With RTS/CTS the exchange is protected; deliveries rise and/or
    // failures fall versus the unprotected run.
    assert!(
        rts_ok > no_rts_ok || rts_fail < no_rts_fail,
        "rts: ok={rts_ok} fail={rts_fail}; bare: ok={no_rts_ok} fail={no_rts_fail}"
    );
    assert_eq!(rts_ok + rts_fail, 80);
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let mut sim = world(3, 20.0);
        for i in 0..20 {
            inject(&mut sim, 1 + i, 0, data_frame(0, 1, 700));
            inject(&mut sim, 1 + i, 2, data_frame(2, 1, 700));
        }
        sim.run_until(SimTime::from_secs(5));
        let w = sim.world();
        (
            w.stats(0).tx_frames,
            w.stats(2).tx_frames,
            w.stats(1).rx_accepted,
            w.stats(0).retries,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn queue_overflow_drops() {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.queue_limit = 4;
    let mut w = WlanWorld::new(cfg);
    w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    w.add_station(
        MacAddr::station(1),
        Point::new(5.0, 0.0),
        Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    // All at the same instant: 1 goes in-flight, 4 queue, rest drop.
    for _ in 0..10 {
        inject(&mut sim, 1, 0, data_frame(0, 1, 8000));
    }
    sim.run_until(SimTime::from_secs(2));
    let w = sim.world();
    assert!(
        w.stats(0).queue_drops >= 5,
        "drops = {}",
        w.stats(0).queue_drops
    );
    assert_eq!(w.stats(0).tx_completions + w.stats(0).queue_drops, 10);
}

#[test]
fn channels_isolate_traffic() {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 13;
    let mut w = WlanWorld::new(cfg);
    let a = w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    let b = w.add_station(
        MacAddr::station(1),
        Point::new(5.0, 0.0),
        Box::new(NullUpper),
    );
    w.set_channel(a, 1);
    w.set_channel(b, 6);
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    inject(&mut sim, 1, a, data_frame(0, 1, 500));
    sim.run_until(SimTime::from_secs(1));
    let w = sim.world();
    // Different channels: B never hears A.
    assert_eq!(w.stats(b).rx_accepted, 0);
    assert_eq!(w.stats(a).tx_failures, 1);
}

#[test]
fn retry_bit_set_on_retransmission() {
    // Receiver exists but is just out of decodable range often
    // enough to force retries — instead, force it determinstically:
    // the peer is on another channel so nothing is ever ACKed.
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 17;
    let mut w = WlanWorld::new(cfg);
    let a = w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    let b = w.add_station(
        MacAddr::station(1),
        Point::new(5.0, 0.0),
        Box::new(NullUpper),
    );
    w.set_channel(b, 6);
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    inject(&mut sim, 1, a, data_frame(0, 1, 300));
    sim.run_until(SimTime::from_secs(2));
    let w = sim.world();
    assert_eq!(w.stats(a).retries, 7);
    assert_eq!(w.stats(a).tx_failures, 1);
}

#[test]
fn power_save_station_misses_frames_while_dozing() {
    struct Doze;
    impl UpperLayer for Doze {
        fn on_start(&mut self, ctx: &mut UpperCtx) {
            ctx.command(Command::SetAwake(false));
        }
    }
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    let mut w = WlanWorld::new(cfg.clone());
    let a = w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    let b = w.add_station(MacAddr::station(1), Point::new(5.0, 0.0), Box::new(Doze));
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    inject(&mut sim, 1, a, data_frame(0, 1, 300));
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(
        sim.world().stats(b).rx_accepted,
        0,
        "dozing STA must not receive"
    );
    assert_eq!(sim.world().stats(a).tx_failures, 1);
    let _ = &mut cfg;
}

#[test]
fn wake_during_audible_tx_defers_backoff() {
    // Regression: a station that dozes, then wakes in the middle of
    // an audible transmission, must re-hear it and defer — not see
    // a spuriously idle medium, arm DIFS+backoff early and collide
    // with the ongoing frame.
    struct DozeWindow;
    impl UpperLayer for DozeWindow {
        fn on_start(&mut self, ctx: &mut UpperCtx) {
            ctx.set_timer(SimDuration::from_micros(500), 1);
            ctx.set_timer(SimDuration::from_millis(2), 2);
        }
        fn on_timer(&mut self, ctx: &mut UpperCtx, tag: u64) {
            ctx.command(Command::SetAwake(tag == 2));
        }
    }
    // 11b timing: a 4000 B frame at 11 Mb/s is ~3 ms of air —
    // station A (injected at 1 ms) is guaranteed to still be on the
    // air when B wakes at 2 ms and queues its own frame. No capture:
    // any overlap at the sink destroys both, so an early B shows up
    // as retries/errors.
    let mut cfg = MacConfig::new(PhyStandard::Dot11b);
    cfg.seed = 9;
    cfg.capture = false;
    cfg.arf = false;
    let mut w = WlanWorld::new(cfg);
    let a = w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    let b = w.add_station(
        MacAddr::station(1),
        Point::new(5.0, 0.0),
        Box::new(DozeWindow),
    );
    let sink = w.add_station(
        MacAddr::station(2),
        Point::new(10.0, 0.0),
        Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    inject(&mut sim, 1, a, data_frame(0, 2, 4000));
    inject_at(
        &mut sim,
        SimTime::from_micros(2_100),
        b,
        data_frame(1, 2, 400),
    );
    sim.run_until(SimTime::from_secs(1));
    let w = sim.world();
    assert_eq!(w.stats(a).tx_completions, 1, "A's frame must survive");
    assert_eq!(w.stats(b).tx_completions, 1, "B's frame must survive");
    assert_eq!(
        w.stats(a).retries + w.stats(b).retries,
        0,
        "waking mid-frame must defer, not collide"
    );
    assert_eq!(w.stats(sink).rx_errors, 0);
    assert_eq!(w.stats(sink).rx_accepted, 2);
}

#[test]
fn overlapping_transmissions_clean_up_audible_sets() {
    // Hidden terminals A and B overlap on the air at the middle
    // station; each tx-end must remove exactly its own id from the
    // audible bookkeeping, leaving every set empty at quiescence.
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 11;
    cfg.capture = false;
    let mut w = WlanWorld::new(cfg);
    let a = w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    let r = w.add_station(
        MacAddr::station(1),
        Point::new(120.0, 0.0),
        Box::new(NullUpper),
    );
    let b = w.add_station(
        MacAddr::station(2),
        Point::new(240.0, 0.0),
        Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    for i in 0..20 {
        inject(&mut sim, 1 + i * 3, a, data_frame(0, 1, 1400));
        inject(&mut sim, 1 + i * 3, b, data_frame(2, 1, 1400));
    }
    sim.run_until(SimTime::from_secs(30));
    let w = sim.world();
    assert!(
        w.stats(a).retries + w.stats(b).retries > 0,
        "hidden terminals should have overlapped at least once"
    );
    for id in [a, r, b] {
        assert!(
            w.dcf.audible[id].is_empty(),
            "station {id} still hears a finished transmission"
        );
        assert!(w.dcf.transmitting[id].is_none());
    }
}

#[test]
fn nav_defers_third_station() {
    // With RTS/CTS on, a third station in range must not transmit
    // during the protected exchange; its access is NAV-deferred.
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.rts_threshold = 0;
    cfg.seed = 23;
    let mut w = WlanWorld::new(cfg);
    let a = w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    let b = w.add_station(
        MacAddr::station(1),
        Point::new(10.0, 0.0),
        Box::new(NullUpper),
    );
    let c = w.add_station(
        MacAddr::station(2),
        Point::new(5.0, 5.0),
        Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    for i in 0..10 {
        inject(&mut sim, 1 + i * 2, a, data_frame(0, 1, 1200));
        inject(&mut sim, 1 + i * 2, c, data_frame(2, 1, 1200));
    }
    sim.run_until(SimTime::from_secs(5));
    let w = sim.world();
    // Everyone close together + NAV ⇒ essentially no losses.
    assert_eq!(w.stats(a).tx_completions, 10);
    assert_eq!(w.stats(c).tx_completions, 10);
    assert_eq!(w.stats(b).rx_accepted, 20);
}

#[test]
fn upper_layer_timer_and_tx_result_callbacks() {
    use std::sync::Arc;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Log {
        timers: u32,
        results: Vec<bool>,
    }
    struct App(Arc<Mutex<Log>>);
    impl UpperLayer for App {
        fn on_start(&mut self, ctx: &mut UpperCtx) {
            ctx.set_timer(SimDuration::from_millis(5), 42);
        }
        fn on_timer(&mut self, ctx: &mut UpperCtx, tag: u64) {
            assert_eq!(tag, 42);
            self.0.lock().unwrap().timers += 1;
            let f = Frame::data(
                DsBits::Ibss,
                MacAddr::station(1),
                ctx.addr,
                MacAddr::random_ibss_bssid(1),
                SequenceControl::default(),
                vec![7; 128],
            );
            ctx.send(f);
        }
        fn on_tx_result(&mut self, _ctx: &mut UpperCtx, _f: &Frame, ok: bool) {
            self.0.lock().unwrap().results.push(ok);
        }
    }
    let log = Arc::new(Mutex::new(Log::default()));
    let mut w = WlanWorld::new(MacConfig::new(PhyStandard::Dot11g));
    w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(App(log.clone())),
    );
    w.add_station(
        MacAddr::station(1),
        Point::new(5.0, 0.0),
        Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(log.lock().unwrap().timers, 1);
    assert_eq!(log.lock().unwrap().results, vec![true]);
}

#[test]
fn rts_and_fragmentation_combine() {
    // A large MSDU still RTS-protects the burst start, then
    // SIFS-chains the fragments.
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.rts_threshold = 100;
    cfg.frag_threshold = 500;
    cfg.seed = 41;
    let mut w = WlanWorld::new(cfg);
    w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    w.add_station(
        MacAddr::station(1),
        Point::new(5.0, 0.0),
        Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    inject(&mut sim, 1, 0, data_frame(0, 1, 1200));
    sim.run_until(SimTime::from_secs(1));
    let w = sim.world();
    assert_eq!(w.stats(0).tx_completions, 1);
    // RTS + 3 fragments from the sender; CTS + 3 ACKs back.
    assert_eq!(w.stats(0).tx_frames, 4);
    assert_eq!(w.stats(1).tx_frames, 4);
    assert_eq!(w.stats(1).rx_payload_bytes, 1200);
    assert!(w
        .trace
        .happened_before_events(tx_of(FrameKind::Rts), tx_of(FrameKind::Cts)));
    assert!(w
        .trace
        .happened_before_events(tx_of(FrameKind::Cts), tx_of(FrameKind::Data)));
}

#[test]
fn arf_falls_back_on_marginal_link() {
    // At ~72 m the 54 Mbps rung is marginal; ARF must settle lower
    // and keep the link productive.
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 43;
    let mut w = WlanWorld::new(cfg);
    w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    w.add_station(
        MacAddr::station(1),
        Point::new(72.0, 0.0),
        Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    for i in 0..100 {
        inject(&mut sim, 1 + i * 5, 0, data_frame(0, 1, 1000));
    }
    sim.run_until(SimTime::from_secs(5));
    let w = sim.world();
    assert!(
        w.stats(0).tx_completions >= 95,
        "ARF should keep the marginal link productive: {} done, {} failed",
        w.stats(0).tx_completions,
        w.stats(0).tx_failures
    );
    // The trace shows data transmissions below the top rate.
    let fallback_txs = w.trace.count_events(|e| {
        matches!(
            e,
            TraceEvent::Tx {
                kind: FrameKind::Data,
                rate_mbps,
                ..
            } if *rate_mbps < 54.0
        )
    });
    assert!(fallback_txs > 0, "no fallback rates ever used");
}

#[test]
fn signal_station_crosses_the_backbone() {
    use std::sync::Arc;
    use std::sync::Mutex;

    // Station 0 signals station 1 out-of-band (the DS mechanism).
    struct Sender;
    impl UpperLayer for Sender {
        fn on_start(&mut self, ctx: &mut UpperCtx) {
            ctx.command(Command::SignalStation {
                station: 1,
                tag: 99,
                delay: SimDuration::from_micros(150),
            });
        }
    }
    #[derive(Default)]
    struct Receiver(Arc<Mutex<Vec<(u64, SimTime)>>>);
    impl UpperLayer for Receiver {
        fn on_timer(&mut self, ctx: &mut UpperCtx, tag: u64) {
            self.0.lock().unwrap().push((tag, ctx.now));
        }
    }
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut w = WlanWorld::new(MacConfig::new(PhyStandard::Dot11g));
    w.add_station(MacAddr::station(0), Point::new(0.0, 0.0), Box::new(Sender));
    w.add_station(
        MacAddr::station(1),
        Point::new(5.0, 0.0),
        Box::new(Receiver(log.clone())),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    sim.run_until(SimTime::from_secs(1));
    let got = log.lock().unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0, 99);
    assert_eq!(got[0].1, SimTime::from_micros(150), "wire latency honoured");
}

#[test]
fn same_slot_commitment_collides() {
    // Two stations arming at the same idle edge with CW 0 must both
    // transmit (the CSMA vulnerable window) and collide.
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 47;
    cfg.capture = false;
    cfg.cw_min_override = Some(0);
    cfg.cw_max_override = Some(0);
    cfg.retry_limit_short = 1;
    let mut w = WlanWorld::new(cfg);
    let rx = w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    let a = w.add_station(
        MacAddr::station(1),
        Point::new(5.0, 0.0),
        Box::new(NullUpper),
    );
    let b = w.add_station(
        MacAddr::station(2),
        Point::new(0.0, 5.0),
        Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    // Same instant, same CW=0: same fire time, guaranteed collision.
    inject(&mut sim, 5, a, data_frame(1, 0, 800));
    inject(&mut sim, 5, b, data_frame(2, 0, 800));
    sim.run_until(SimTime::from_secs(1));
    let w = sim.world();
    assert!(
        w.stats(rx).rx_errors >= 2,
        "collisions expected: {}",
        w.stats(rx).rx_errors
    );
    // With CW pinned to 0, retries collide again: both MSDUs die.
    assert_eq!(w.stats(a).tx_failures + w.stats(b).tx_failures, 2);
}

/// Regression: `complete_attempt` used to hand `on_tx_result` a
/// frame whose body had been emptied by `mem::take` in
/// `maybe_start_next` and whose More Fragments bit was forced to
/// `total_frags > 1` — upper layers saw a zero-length MSDU flagged
/// as fragmented. The callback frame must carry the original body
/// with MF clear.
#[test]
fn tx_result_preserves_body_and_clears_mf_bit() {
    use std::sync::Arc;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Seen(Arc<Mutex<Vec<(usize, bool, bool)>>>);
    impl UpperLayer for Seen {
        fn on_tx_result(&mut self, _ctx: &mut UpperCtx, f: &Frame, ok: bool) {
            self.0
                .lock()
                .unwrap()
                .push((f.body.len(), f.fc.more_fragments, ok));
        }
    }
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.frag_threshold = 400; // 1000 B -> 3 fragments.
    cfg.seed = 3;
    let mut w = WlanWorld::new(cfg);
    w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(Seen(seen.clone())),
    );
    w.add_station(
        MacAddr::station(1),
        Point::new(5.0, 0.0),
        Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    inject(&mut sim, 1, 0, data_frame(0, 1, 1000));
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(
        *seen.lock().unwrap(),
        vec![(1000, false, true)],
        "callback frame must carry the full original body, MF clear"
    );
}

/// Regression: `enqueue` used to drop an MSDU on queue overflow
/// without ever invoking `on_tx_result(..., false)`, so upper-layer
/// state machines waited forever on a confirmation that could not
/// arrive. Every queued MSDU must get exactly one outcome callback.
#[test]
fn queue_overflow_reports_failure_to_upper_layer() {
    use std::sync::Arc;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Outcomes(Arc<Mutex<Vec<bool>>>);
    impl UpperLayer for Outcomes {
        fn on_tx_result(&mut self, _ctx: &mut UpperCtx, _f: &Frame, ok: bool) {
            self.0.lock().unwrap().push(ok);
        }
    }
    let outcomes = Arc::new(Mutex::new(Vec::new()));
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.queue_limit = 4;
    let mut w = WlanWorld::new(cfg);
    w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(Outcomes(outcomes.clone())),
    );
    w.add_station(
        MacAddr::station(1),
        Point::new(5.0, 0.0),
        Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    // All at the same instant: 1 goes in-flight, 4 queue, 5 drop.
    for _ in 0..10 {
        inject(&mut sim, 1, 0, data_frame(0, 1, 8000));
    }
    sim.run_until(SimTime::from_secs(2));
    let w = sim.world();
    let got = outcomes.lock().unwrap();
    assert_eq!(
        got.len(),
        10,
        "every queued MSDU needs exactly one outcome callback"
    );
    let failures = got.iter().filter(|ok| !**ok).count() as u64;
    assert_eq!(failures, w.stats(0).queue_drops);
    assert!(failures >= 5, "failures = {failures}");
    // The drop is also visible as a Warn trace event.
    assert_eq!(
        w.trace.count_events(|e| matches!(
            e,
            TraceEvent::Drop {
                reason: DropReason::QueueFull,
                ..
            }
        )) as u64,
        w.stats(0).queue_drops
    );
}

#[test]
fn saturation_throughput_in_plausible_band() {
    // One saturated 802.11g sender, 1500-B MSDUs: theory (no RTS,
    // ideal channel) gives ~25-30 Mbps MAC throughput at 54 Mbps PHY.
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 31;
    let mut w = WlanWorld::new(cfg);
    let a = w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    let b = w.add_station(
        MacAddr::station(1),
        Point::new(5.0, 0.0),
        Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    for i in 0..2000u64 {
        // Keep the queue fed.
        inject_at(
            &mut sim,
            SimTime::from_micros(i * 400),
            a,
            data_frame(0, 1, 1500),
        );
    }
    sim.run_until(SimTime::from_secs(1));
    let bytes = sim.world().stats(b).rx_payload_bytes;
    let elapsed = 1.0;
    let mbps = bytes as f64 * 8.0 / elapsed / 1e6;
    assert!(
        (15.0..40.0).contains(&mbps),
        "802.11g saturation throughput {mbps} Mbps outside plausible band"
    );
}

// ----- EDCA / A-MPDU -----

fn qos_world(n: usize, spacing_m: f64) -> Simulation<WlanWorld> {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 7;
    cfg.edca = true;
    let mut w = WlanWorld::new(cfg);
    for i in 0..n {
        w.add_station(
            MacAddr::station(i as u32),
            Point::new(spacing_m * i as f64, 0.0),
            Box::new(NullUpper),
        );
    }
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    sim
}

fn qinject(
    sim: &mut Simulation<WlanWorld>,
    at_us: u64,
    station: StationId,
    frame: Frame,
    ac: AccessCategory,
) {
    qos_inject_at(sim, SimTime::from_micros(at_us), station, frame, ac);
}

#[test]
fn edca_single_frame_rides_qos_data_and_block_ack() {
    let mut sim = qos_world(2, 10.0);
    qinject(
        &mut sim,
        1_000,
        0,
        data_frame(0, 1, 500),
        AccessCategory::Be,
    );
    sim.run_until(SimTime::from_secs(1));
    let w = sim.world();
    assert_eq!(w.stats(0).tx_completions, 1);
    assert_eq!(w.stats(0).tx_failures, 0);
    assert_eq!(w.stats(1).rx_accepted, 1);
    assert_eq!(w.stats(1).rx_payload_bytes, 500);
    assert_eq!(w.trace.count_events(tx_of(FrameKind::QosData)), 1);
    assert_eq!(w.trace.count_events(tx_of(FrameKind::BlockAck)), 1);
    assert_eq!(w.trace.count_events(tx_of(FrameKind::Ack)), 0);
    assert!(w
        .trace
        .happened_before_events(tx_of(FrameKind::QosData), tx_of(FrameKind::BlockAck)));
}

#[test]
fn ampdu_aggregates_a_backlog_into_few_ppdus() {
    let mut sim = qos_world(2, 10.0);
    // 32 MSDUs land before the first access completes: with
    // ampdu_max_mpdus = 16 they must ride at most a handful of
    // PPDUs, not 32.
    for i in 0..32u64 {
        qinject(
            &mut sim,
            1_000 + i,
            0,
            data_frame(0, 1, 300),
            AccessCategory::Be,
        );
    }
    sim.run_until(SimTime::from_secs(2));
    let w = sim.world();
    assert_eq!(w.stats(0).tx_completions, 32);
    assert_eq!(w.stats(1).rx_accepted, 32);
    let ppdus = w.trace.count_events(tx_of(FrameKind::QosData));
    assert!(
        (2..=6).contains(&ppdus),
        "32 MSDUs should aggregate into a few PPDUs, saw {ppdus}"
    );
    // Conservation: every A-MPDU got a matching BA.
    assert_eq!(
        w.trace.count_events(tx_of(FrameKind::BlockAck)),
        ppdus,
        "one BA per aggregate"
    );
}

#[test]
fn ampdu_partial_loss_retries_only_missing_mpdus() {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 11;
    cfg.edca = true;
    cfg.ampdu_per_mpdu_loss = 0.3;
    let mut w = WlanWorld::new(cfg);
    for i in 0..2 {
        w.add_station(
            MacAddr::station(i),
            Point::new(10.0 * i as f64, 0.0),
            Box::new(NullUpper),
        );
    }
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    for i in 0..40u64 {
        qinject(
            &mut sim,
            1_000 + i,
            0,
            data_frame(0, 1, 300),
            AccessCategory::Vi,
        );
    }
    sim.run_until(SimTime::from_secs(5));
    let w = sim.world();
    // 30% per-MPDU loss is far below the retry budget: everything
    // completes, but only after per-MPDU retries.
    assert_eq!(w.stats(0).tx_completions, 40);
    assert_eq!(w.stats(0).tx_failures, 0);
    assert!(w.stats(0).retries > 0, "partial BAs must trigger retries");
    assert_eq!(w.stats(1).rx_accepted, 40);
    assert!(w.stats(1).rx_errors > 0);
    // No MPDU resolved twice: BlockAckRx acked-bit total == 40.
    let mut acked = 0u32;
    for (_, e) in w.trace.events() {
        if let TraceEvent::BlockAckRx { bitmap, .. } = e {
            acked += bitmap.count_ones();
        }
    }
    assert_eq!(acked, 40, "each MPDU acked exactly once across BAs");
}

#[test]
fn ampdu_retry_exhaustion_drops_each_mpdu_once() {
    let mut sim = qos_world(2, 50_000.0); // peer far out of range
    for i in 0..8u64 {
        qinject(
            &mut sim,
            1_000 + i,
            0,
            data_frame(0, 1, 200),
            AccessCategory::Be,
        );
    }
    sim.run_until(SimTime::from_secs(5));
    let w = sim.world();
    assert_eq!(w.stats(0).tx_completions, 0);
    assert_eq!(w.stats(0).tx_failures, 8);
    let drops = w
        .trace
        .count_events(|e| matches!(e, TraceEvent::MpduDrop { .. }));
    assert_eq!(drops, 8, "one MpduDrop per exhausted MPDU");
    assert_eq!(w.pending_msdus(0), 0);
}

#[test]
fn qos_broadcast_completes_without_block_ack() {
    let mut sim = qos_world(3, 10.0);
    let f = Frame::data(
        DsBits::Ibss,
        MacAddr::BROADCAST,
        MacAddr::station(0),
        MacAddr::random_ibss_bssid(1),
        SequenceControl::default(),
        vec![1; 100],
    );
    qinject(&mut sim, 1_000, 0, f, AccessCategory::Vo);
    sim.run_until(SimTime::from_secs(1));
    let w = sim.world();
    assert_eq!(w.stats(0).tx_completions, 1);
    assert_eq!(w.stats(1).rx_accepted, 1);
    assert_eq!(w.stats(2).rx_accepted, 1);
    assert_eq!(w.trace.count_events(tx_of(FrameKind::BlockAck)), 0);
}

#[test]
fn edca_vo_median_beats_bk_under_saturation() {
    let mut sim = qos_world(2, 10.0);
    for i in 0..60u64 {
        qinject(
            &mut sim,
            1_000 + i,
            0,
            data_frame(0, 1, 400),
            AccessCategory::Vo,
        );
        qinject(
            &mut sim,
            1_000 + i,
            0,
            data_frame(0, 1, 400),
            AccessCategory::Bk,
        );
    }
    sim.run_until(SimTime::from_secs(10));
    let w = sim.world();
    assert_eq!(w.stats(0).tx_completions, 120);
    let vo = w.ac_delay_quantile(AccessCategory::Vo, 0.5).unwrap();
    let bk = w.ac_delay_quantile(AccessCategory::Bk, 0.5).unwrap();
    assert!(
        vo < bk,
        "AC_VO p50 ({vo} µs) must beat AC_BK p50 ({bk} µs) under saturation"
    );
    // Internal collisions surfaced as EDCA backoff redraws.
    assert!(
        w.trace
            .count_events(|e| matches!(e, TraceEvent::EdcaBackoff { .. }))
            > 0
    );
}

#[test]
fn aifsn_swap_failpoint_inverts_priority() {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 7;
    cfg.edca = true;
    cfg.failpoint_aifsn_swap = true;
    let mut w = WlanWorld::new(cfg);
    for i in 0..2 {
        w.add_station(
            MacAddr::station(i),
            Point::new(10.0 * i as f64, 0.0),
            Box::new(NullUpper),
        );
    }
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    for i in 0..60u64 {
        qinject(
            &mut sim,
            1_000 + i,
            0,
            data_frame(0, 1, 400),
            AccessCategory::Vo,
        );
        qinject(
            &mut sim,
            1_000 + i,
            0,
            data_frame(0, 1, 400),
            AccessCategory::Bk,
        );
    }
    sim.run_until(SimTime::from_secs(10));
    let w = sim.world();
    let vo = w.ac_delay_quantile(AccessCategory::Vo, 0.5).unwrap();
    let bk = w.ac_delay_quantile(AccessCategory::Bk, 0.5).unwrap();
    assert!(
        bk < vo,
        "with swapped AIFSN sets BK ({bk} µs) must beat VO ({vo} µs)"
    );
}

#[test]
fn qos_ampdu_to_distinct_receivers_does_not_merge() {
    let mut sim = qos_world(3, 10.0);
    // Alternating receivers: the same-receiver head-run rule must
    // split the backlog instead of aggregating across peers.
    for i in 0..10u64 {
        let to = 1 + (i % 2) as u32;
        qinject(
            &mut sim,
            1_000 + i,
            0,
            data_frame(0, to, 300),
            AccessCategory::Be,
        );
    }
    sim.run_until(SimTime::from_secs(2));
    let w = sim.world();
    assert_eq!(w.stats(0).tx_completions, 10);
    assert_eq!(w.stats(1).rx_accepted, 5);
    assert_eq!(w.stats(2).rx_accepted, 5);
    // Alternation forces 10 singleton aggregates.
    assert_eq!(w.trace.count_events(tx_of(FrameKind::QosData)), 10);
}

#[test]
fn edca_and_legacy_stations_interoperate() {
    // A QoS sender talking to a legacy receiver: the BA response
    // path uses the plain control-frame scheduler, so mixed worlds
    // must still converse.
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = 5;
    cfg.edca = true;
    let mut w = WlanWorld::new(cfg);
    w.add_station(
        MacAddr::station(0),
        Point::new(0.0, 0.0),
        Box::new(NullUpper),
    );
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    for i in 0..5u64 {
        qinject(
            &mut sim,
            1_000 + i,
            0,
            data_frame(0, 0, 100),
            AccessCategory::Vi,
        );
    }
    sim.run_until(SimTime::from_secs(1));
    // Self-addressed traffic never completes, but must not wedge
    // or panic the EDCA machinery either.
    let _ = sim.world().stats(0);
}

#[test]
fn qos_off_worlds_have_no_edca_state() {
    let sim = world(2, 10.0);
    assert_eq!(sim.world().station_airtime_us(0), 0);
    assert!(sim
        .world()
        .ac_delay_quantile(AccessCategory::Vo, 0.5)
        .is_none());
}
