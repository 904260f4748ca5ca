//! The observability plane's determinism gate: attaching a live admin
//! scraper to a run must not perturb its transcripts. A scraped run has
//! to produce the *bit-identical* digest fold of an unscraped run of the
//! same seed — and both must match the in-process replay — because the
//! stats channel is read-only by construction: it never touches session
//! state, the RNG discipline, or the turn order.

use std::time::Duration;

use bci_mux::load::{run_load, LoadSpec};
use bci_mux::CoordinatorKind;

fn spec(sessions: u64) -> LoadSpec {
    let mut spec = LoadSpec::new(sessions, 3);
    spec.n = 32;
    spec.seed = 0x0B5E;
    spec.deadline = Some(Duration::from_secs(20));
    spec
}

#[test]
fn scraped_mux_run_is_bit_identical_to_unscraped() {
    let base = spec(256);
    let unscraped = run_load(&base).expect("unscraped run");
    assert_eq!(unscraped.kind, CoordinatorKind::Mux);
    assert_eq!(unscraped.scrapes, 0);
    assert!(unscraped.scrape_snapshot.is_none());

    let mut scraped_spec = base.clone();
    scraped_spec.scrape_interval = Some(Duration::from_millis(1));
    let scraped = run_load(&scraped_spec).expect("scraped run");
    assert_eq!(scraped.kind, CoordinatorKind::MuxScraped);
    assert_eq!(scraped.completed, base.sessions);

    // The whole point: observation changed nothing.
    assert_eq!(
        scraped.digest, unscraped.digest,
        "scraping perturbed the transcripts"
    );
    assert_eq!(scraped.verified(), Some(true));
    assert_eq!(unscraped.verified(), Some(true));
}

#[test]
fn mux_scraper_lands_snapshots_while_the_run_is_in_flight() {
    // Enough sessions that the run outlives the scraper's connect
    // handshake; the 1ms interval then lands many mid-run snapshots.
    let mut s = spec(2048);
    s.scrape_interval = Some(Duration::from_millis(1));
    let report = run_load(&s).expect("scraped run");
    assert_eq!(report.completed, s.sessions);
    assert_eq!(report.verified(), Some(true));
    assert!(
        report.scrapes > 0,
        "scraper should land at least one live snapshot over {} sessions",
        s.sessions
    );
    let snap = report.scrape_snapshot.expect("last snapshot kept");
    // The snapshot is the daemon's live telemetry, not a placeholder:
    // roster gauges and the session counters must be populated.
    assert_eq!(snap.gauge("mux.roster_players"), 3);
    assert!(snap.counter("mux.sessions_started") > 0);
    assert!(snap.counter("mux.stats_served") > 0);
    let turns = snap
        .hist("mux.turn_latency_us")
        .expect("turn latency")
        .count();
    assert!(turns > 0);
    // Every applied turn is split into its four phases, recorded with
    // its latency, so each phase histogram counts the same turns.
    for phase in ["queue", "flush", "remote", "apply"] {
        let name = format!("mux.turn_{phase}_us");
        let hist = snap.hist(&name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(hist.count(), turns, "{name} counts other turns");
    }
}
