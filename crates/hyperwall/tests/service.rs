//! Integration tests for the multi-tenant session service over real TCP.
//!
//! The acceptance scenario: drive the service at 4× its worker capacity
//! with a seeded mix of conforming sessions and scripted abusers
//! (quota storms, slow-loris, mid-request disconnects, reconnect
//! herds). Conforming sessions must keep a p99 within 2× of the healthy
//! baseline, misbehaving sessions must be shed first, and every turned-
//! away request must receive an explicit `RetryAfter` — zero silent
//! drops.

use hyperwall::fault::FaultPlan;
use hyperwall::protocol::ServiceWork;
use hyperwall::service::client::{
    disconnect_mid_request, reconnect_storm, run_faulted_client, slow_loris_open, ServiceClient,
};
use hyperwall::service::quota::{QuotaConfig, MILLI};
use hyperwall::service::{spawn_service, MuxConfig, ServiceConfig};
use hyperwall::WallError;
use std::time::Duration;

const IO: Duration = Duration::from_millis(500);

fn quick_work(seed: u64) -> ServiceWork {
    ServiceWork::Analysis { seed, len: 256 }
}

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        mux: MuxConfig {
            max_sessions: 16,
            inbox_capacity: 12,
            quota: QuotaConfig { burst: 12, refill_milli_per_round: 4 * MILLI },
            quantum: 2,
            overload_watermark: 16,
            shed_watermark: 32,
            misbehave_threshold: 4,
            round_ms: 2,
        },
        workers: 2,
        io_deadline_ms: 250,
        round_interval_ms: 2,
    }
}

/// The headline acceptance test: 4× over-capacity with one scripted
/// quota-storm flooder. Conforming p99 stays within 2× the healthy
/// baseline, the flooder is shed first, and nothing is dropped silently.
#[test]
fn seeded_overload_protects_conforming_sessions() {
    // --- healthy baseline: 2 conforming sessions, paced requests ---
    let svc = spawn_service(service_cfg()).unwrap();
    let addr = svc.addr();
    let works: Vec<ServiceWork> = (0..10).map(quick_work).collect();
    let baseline: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|id| {
                let works = works.clone();
                s.spawn(move || {
                    let mut c = ServiceClient::connect(addr, id, IO).unwrap();
                    let stats =
                        c.run_closed_loop(&works, Duration::from_secs(2), Duration::from_millis(4));
                    c.close().ok();
                    stats
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    svc.shutdown();
    let healthy_p99 = baseline
        .iter()
        .filter_map(|s| s.percentile_ms(99.0))
        .fold(0.0f64, f64::max);
    assert!(healthy_p99 > 0.0, "baseline produced latencies");
    for s in &baseline {
        assert_eq!(s.timeouts, 0, "healthy run must not time out");
        assert_eq!(s.answered(), 10, "healthy run answers everything");
    }

    // --- overload: same service tuning, 4× the worker capacity ---
    // 2 workers × 2-slot rounds ≈ the capacity the conforming pair uses;
    // one seeded quota-storm flooder adds ~4× that demand on top.
    let plan = FaultPlan::seeded_service_storm(77, 3, 1, 96);
    let storm_session = (0..3)
        .find(|&id| plan.client(id).quota_storm() > 0)
        .expect("seeded storm scripts one quota flooder") as u64;
    let svc = spawn_service(service_cfg()).unwrap();
    let addr = svc.addr();
    let (conforming, flooder): (Vec<_>, _) = std::thread::scope(|s| {
        let flood_plan = plan.clone();
        let flooder = s.spawn(move || {
            run_faulted_client(
                addr,
                storm_session,
                &flood_plan.client(storm_session as usize),
                &[quick_work(999)],
                IO,
            )
            .unwrap()
        });
        let handles: Vec<_> = (0..3u64)
            .filter(|id| *id != storm_session)
            .map(|id| {
                let works = works.clone();
                s.spawn(move || {
                    let mut c = ServiceClient::connect(addr, 100 + id, IO).unwrap();
                    let stats =
                        c.run_closed_loop(&works, Duration::from_secs(2), Duration::from_millis(4));
                    c.close().ok();
                    stats
                })
            })
            .collect();
        (
            handles.into_iter().map(|h| h.join().unwrap()).collect(),
            flooder.join().unwrap(),
        )
    });
    let sessions = svc.sessions();
    let report = svc.shutdown();

    // conforming latency held: p99 within 2× the healthy baseline
    // (floored at 25 ms — scheduler-tick noise dominates below that)
    let overload_p99 = conforming
        .iter()
        .filter_map(|s| s.percentile_ms(99.0))
        .fold(0.0f64, f64::max);
    let bound = 2.0 * healthy_p99.max(25.0);
    assert!(
        overload_p99 <= bound,
        "conforming p99 {overload_p99:.1}ms exceeded 2× healthy baseline \
         ({healthy_p99:.1}ms → bound {bound:.1}ms)"
    );
    for s in &conforming {
        assert_eq!(s.timeouts, 0, "conforming sessions must not time out");
        assert_eq!(s.answered(), 10, "every conforming request gets an answer");
    }

    // the flooder was rejected/shed — and every one of those was an
    // explicit RetryAfter, zero silent drops
    assert!(
        flooder.retry_afters > 0,
        "the quota storm must see explicit RetryAfter frames, got {flooder:?}"
    );
    let m = report.mux;
    assert!(
        m.rejected_quota + m.rejected_inbox + m.shed > 0,
        "overload must actually reject or shed: {m:?}"
    );
    assert!(
        report.counters.retry_afters >= m.shed + m.rejected_quota + m.rejected_inbox,
        "every rejection and shed produced a RetryAfter: {:?} vs {m:?}",
        report.counters
    );
    // sheds (if any) came off the misbehaving session only
    if let Some(storm) = sessions.iter().find(|s| s.misbehaving) {
        for s in &sessions {
            if !s.misbehaving {
                assert_eq!(s.shed, 0, "conforming session {s:?} was shed before {storm:?}");
            }
        }
    }
}

/// A slow-loris opener (one byte per 20 ms) is cut off by the total-frame
/// deadline instead of wedging a connection thread, and a concurrent
/// well-behaved client is unaffected.
#[test]
fn slow_loris_is_cut_off_and_neighbors_unaffected() {
    let mut cfg = service_cfg();
    cfg.io_deadline_ms = 100;
    let svc = spawn_service(cfg).unwrap();
    let addr = svc.addr();
    let (sent, neighbor) = std::thread::scope(|s| {
        let loris = s.spawn(move || slow_loris_open(addr, 7, 20).unwrap());
        let good = s.spawn(move || {
            let mut c = ServiceClient::connect(addr, 1, IO).unwrap();
            let stats = c.run_closed_loop(
                &(0..5).map(quick_work).collect::<Vec<_>>(),
                Duration::from_secs(2),
                Duration::from_millis(2),
            );
            c.close().ok();
            stats
        });
        (loris.join().unwrap(), good.join().unwrap())
    });
    let report = svc.shutdown();
    assert!(
        sent < 30,
        "the service must hang up on a dribbling opener well before the \
         frame completes (sent {sent} bytes)"
    );
    assert!(report.counters.deadline_drops >= 1, "the drop is accounted: {report:?}");
    assert_eq!(neighbor.timeouts, 0, "neighbor unaffected by the slow-loris");
    assert_eq!(neighbor.answered(), 5);
}

/// A client that dies halfway through a `Request` frame neither wedges
/// its connection thread nor poisons the session: a reconnect under the
/// same id picks up where it left off.
#[test]
fn mid_request_disconnect_survives_and_session_reconnects() {
    let mut cfg = service_cfg();
    cfg.io_deadline_ms = 100;
    let svc = spawn_service(cfg).unwrap();
    let addr = svc.addr();
    disconnect_mid_request(addr, 5, IO).unwrap();
    // give the connection thread time to trip its frame deadline
    std::thread::sleep(Duration::from_millis(250));
    // same session id reconnects and works
    let mut c = ServiceClient::connect(addr, 5, IO).unwrap();
    let stats = c.run_closed_loop(
        &(0..4).map(quick_work).collect::<Vec<_>>(),
        Duration::from_secs(2),
        Duration::from_millis(2),
    );
    c.close().ok();
    let report = svc.shutdown();
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.answered(), 4, "reconnected session is fully served");
    assert!(
        report.counters.deadline_drops + report.counters.disconnects >= 1,
        "the cut connection is accounted: {report:?}"
    );
}

/// A thundering herd of reconnects on one session id is admitted
/// idempotently — quota and badness survive, the session slot is not
/// duplicated, and the service keeps serving others throughout.
#[test]
fn reconnect_storm_is_idempotent_and_bounded() {
    let svc = spawn_service(service_cfg()).unwrap();
    let addr = svc.addr();
    let (accepted, neighbor) = std::thread::scope(|s| {
        let herd = s.spawn(move || reconnect_storm(addr, 9, 8, IO));
        let good = s.spawn(move || {
            let mut c = ServiceClient::connect(addr, 2, IO).unwrap();
            let stats = c.run_closed_loop(
                &(0..5).map(quick_work).collect::<Vec<_>>(),
                Duration::from_secs(2),
                Duration::from_millis(2),
            );
            c.close().ok();
            stats
        });
        (herd.join().unwrap(), good.join().unwrap())
    });
    let sessions = svc.sessions();
    svc.shutdown();
    assert_eq!(accepted, 8, "idempotent reopen accepts every handshake");
    assert!(
        sessions.iter().filter(|s| s.id == 9).count() <= 1,
        "the stormed session occupies at most one slot"
    );
    assert_eq!(neighbor.timeouts, 0);
    assert_eq!(neighbor.answered(), 5, "neighbor served through the herd");
}

/// The session cap turns the (max+1)-th tenant away with an explicit
/// retry hint, surfaced as `WallError::Overloaded`.
#[test]
fn session_capacity_rejects_with_retry_hint() {
    let mut cfg = service_cfg();
    cfg.mux.max_sessions = 2;
    let svc = spawn_service(cfg).unwrap();
    let addr = svc.addr();
    let a = ServiceClient::connect(addr, 1, IO).unwrap();
    let b = ServiceClient::connect(addr, 2, IO).unwrap();
    match ServiceClient::connect(addr, 3, IO) {
        Err(WallError::Overloaded { retry_after_ms }) => {
            assert!(retry_after_ms > 0, "the rejection carries a usable backoff");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    drop(a);
    drop(b);
    svc.shutdown();
}

/// Responses are deterministic per (work, quality): two sessions asking
/// for the same work get the same digest, and the shared plan cache
/// means the second regrid request reuses the first session's plan.
#[test]
fn shared_plan_cache_gives_identical_answers_across_sessions() {
    let svc = spawn_service(service_cfg()).unwrap();
    let addr = svc.addr();
    let work = ServiceWork::Regrid { src: (24, 48), dst: (11, 21), seed: 42 };
    let digest_of = |session: u64| -> u64 {
        let mut c = ServiceClient::connect(addr, session, IO).unwrap();
        c.send_request(0, work.clone()).unwrap();
        let mut digest = None;
        for _ in 0..400 {
            if let Some(hyperwall::protocol::Message::Response { digest: d, .. }) =
                c.poll(Duration::from_millis(10)).unwrap()
            {
                digest = Some(d);
                break;
            }
        }
        c.close().ok();
        digest.expect("request answered")
    };
    let d1 = digest_of(1);
    let d2 = digest_of(2);
    let report = svc.shutdown();
    assert_eq!(d1, d2, "same work, same digest, regardless of tenant");
    assert!(
        report.plan_cache.hits > 0,
        "the second session's regrid must hit the shared plan cache: {:?}",
        report.plan_cache
    );
}
