//! Integration test for the process-global observability kill switch.
//!
//! Lives in its own integration-test binary (own process) so toggling
//! the global flag cannot race with the library's unit tests, which run
//! as threads of a different binary.

use wn_sim::trace::{Level, Trace, TraceEvent};
use wn_sim::{observability_enabled, set_observability, SimTime};

fn handoff(tr: &mut Trace, ms: u64, station: u32) {
    tr.event(
        SimTime::from_millis(ms),
        Level::Info,
        "x",
        TraceEvent::Handoff { station },
    );
}

#[test]
fn kill_switch_suppresses_retention_and_restores() {
    assert!(observability_enabled(), "default must be enabled");
    let mut tr = Trace::new(16);

    handoff(&mut tr, 0, 0);
    set_observability(false);
    assert!(!observability_enabled());
    handoff(&mut tr, 1, 1);
    tr.event(
        SimTime::from_millis(2),
        Level::Warn,
        "x",
        TraceEvent::Handoff { station: 2 },
    );
    set_observability(true);
    handoff(&mut tr, 3, 3);

    let stations: Vec<u32> = tr.events().map(|(_, e)| e.station()).collect();
    assert_eq!(stations, vec![0, 3]);
    assert_eq!(tr.dropped(), 0, "suppressed records are not 'evictions'");
}
