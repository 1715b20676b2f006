//! Fault-injection soak of the event-loop daemon.
//!
//! Three weighted tenants tune a 20-matrix fleet while a chaos thread
//! attacks the same daemon: sockets killed mid-frame, writes stalled past
//! the slow-loris deadline, and socket-shutdown-then-reconnect storms.
//! The daemon must survive it all — every tenant's closed-loop work
//! completes, the terminal-job GC converges to its configured bound,
//! connection accounting returns to quiescent, no tenant is starved below
//! its fairness weight, and the shutdown is clean.

use alpha_matrix::gen;
use alpha_net::proto::{NET_MAGIC, PROTOCOL_VERSION};
use alpha_net::{Client, NetServer, ServerConfig};
use alpha_serve::{DesignStore, TuningService};
use alphasparse::SearchConfig;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

const POLL: Duration = Duration::from_millis(5);
const DEADLINE: Duration = Duration::from_secs(120);
const FLEET: usize = 20;
const TENANTS: u64 = 3;
const MAX_TERMINAL: usize = 16;
const FRAME_DEADLINE: Duration = Duration::from_millis(300);

/// One chaos round: three attack modes cycled by `round`.
fn chaos_round(addr: SocketAddr, round: u64) {
    match round % 3 {
        // Kill the socket mid-frame: a valid header promising more payload
        // than is ever sent, then vanish.
        0 => {
            if let Ok(mut raw) = TcpStream::connect(addr) {
                let _ = raw.write_all(&NET_MAGIC);
                let _ = raw.write_all(&PROTOCOL_VERSION.to_le_bytes());
                let _ = raw.write_all(&512u64.to_le_bytes());
                let _ = raw.write_all(&[0xAB; 37]);
                drop(raw);
            }
        }
        // Stall a write past the frame deadline: the slow-loris sweep must
        // reclaim the connection (we hold it open, silent, mid-frame).
        1 => {
            if let Ok(mut raw) = TcpStream::connect(addr) {
                let _ = raw.write_all(&NET_MAGIC);
                let _ = raw.write_all(&PROTOCOL_VERSION.to_le_bytes());
                let _ = raw.write_all(&64u64.to_le_bytes());
                let _ = raw.write_all(&[1u8; 8]);
                std::thread::sleep(FRAME_DEADLINE + Duration::from_millis(200));
                // By now the daemon should have torn us down; either way
                // the socket is dropped here.
            }
        }
        // Shutdown-then-reconnect storm: a burst of connections that each
        // half-open and immediately shut down both directions.
        _ => {
            for _ in 0..10 {
                if let Ok(raw) = TcpStream::connect(addr) {
                    let _ = raw.shutdown(Shutdown::Both);
                }
            }
        }
    }
}

#[test]
fn chaos_soak_survives_converges_and_starves_no_tenant() {
    let dir = std::env::temp_dir().join(format!("alpha_chaos_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = TuningService::new(
        DesignStore::open(&dir).expect("store opens"),
        SearchConfig {
            max_iterations: 6,
            mutations_per_seed: 2,
            ..SearchConfig::default()
        },
    );
    let server = NetServer::spawn(
        "127.0.0.1:0",
        service,
        ServerConfig {
            queue_capacity: 8,
            workers: 2,
            max_terminal_jobs: MAX_TERMINAL,
            frame_deadline: FRAME_DEADLINE,
            tenant_weights: vec![(1, 3), (2, 1), (3, 1)],
            metrics_addr: None,
            ..ServerConfig::default()
        },
    )
    .expect("daemon binds");
    let addr = server.local_addr();

    let stop_chaos = AtomicBool::new(false);
    let chaos_rounds = AtomicU64::new(0);
    let per_tenant = FLEET.div_ceil(TENANTS as usize);

    std::thread::scope(|scope| {
        // The chaos thread runs for as long as the tenants are working.
        let stop = &stop_chaos;
        let rounds = &chaos_rounds;
        scope.spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                chaos_round(addr, round);
                round += 1;
                rounds.store(round, Ordering::Relaxed);
            }
        });

        // Three weighted tenants, each a closed loop over its fleet share.
        for tenant in 1..=TENANTS {
            scope.spawn(move || {
                let (mut client, weight) =
                    Client::connect_as(addr, tenant).expect("tenant connects");
                assert_eq!(
                    weight,
                    if tenant == 1 { 3 } else { 1 },
                    "the daemon must assign the configured weight"
                );
                for i in 0..per_tenant as u64 {
                    let matrix = gen::powerlaw(96, 96, 4, 2.0, 1_000 * tenant + i);
                    let job = client
                        .submit_tune_with_backoff(
                            &matrix,
                            "A100",
                            Duration::from_millis(2),
                            DEADLINE,
                        )
                        .expect("tenant work is admitted despite chaos");
                    client
                        .wait_job(job, POLL, DEADLINE)
                        .expect("tenant jobs finish despite chaos");
                    let y = client.spmv(job, &[1.0; 96]).expect("spmv despite chaos");
                    assert_eq!(y.len(), 96);
                }
            });
        }
        // The scope joins every thread on exit, so the chaos flag is
        // flipped from here once the tenants are done — detected by polling
        // the daemon's own terminal-job count.  The soak additionally stays
        // open until every attack mode has run at least three times, so
        // fast tuners cannot degenerate the chaos phase to a round or two.
        let expected = (per_tenant as u64) * TENANTS;
        let mut probe = Client::connect(addr).expect("probe connects");
        loop {
            let stats = probe.store_stats().expect("stats under chaos");
            if stats.jobs_completed + stats.jobs_failed >= expected
                && chaos_rounds.load(Ordering::Relaxed) >= 9
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        stop_chaos.store(true, Ordering::Relaxed);
    });

    // --- Post-soak invariants -------------------------------------------
    let mut client = Client::connect(addr).expect("daemon alive after soak");

    // Connection accounting returns to quiescent: the chaos sockets are all
    // dropped by now, but the reaper runs on the loop's tick, so give it a
    // bounded settle window before holding it to the invariant.
    let settle_deadline = std::time::Instant::now() + Duration::from_secs(5);
    let stats = loop {
        let stats = client.store_stats().expect("stats after soak");
        if stats.open_connections <= 1 || std::time::Instant::now() >= settle_deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        stats.open_connections <= 2,
        "chaos connections must be reaped, open_connections={}",
        stats.open_connections
    );

    // Terminal-GC convergence: every job is terminal now, and the table
    // holds at most the configured retention window.
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(
        stats.jobs_completed + stats.jobs_failed,
        (per_tenant as u64) * TENANTS,
        "every admitted job must reach a terminal state"
    );
    assert!(
        stats.jobs_resident <= MAX_TERMINAL as u64,
        "terminal GC must converge to its bound, resident={}",
        stats.jobs_resident
    );
    assert_eq!(
        stats.jobs_gced,
        stats.jobs_completed + stats.jobs_failed - stats.jobs_resident,
        "GC accounting must balance"
    );

    // No tenant starved: all three tenants completed their full closed-loop
    // share (the per-client asserts above guarantee it; the daemon's own
    // ledger must agree), and fairness weights survived the soak.
    let tenants = client.tenant_stats().expect("tenant stats");
    for tenant in 1..=TENANTS {
        let entry = tenants
            .iter()
            .find(|t| t.client_id == tenant)
            .expect("tenant is in the ledger");
        assert_eq!(entry.weight, if tenant == 1 { 3 } else { 1 });
        assert_eq!(
            entry.completed, per_tenant as u64,
            "tenant {tenant} must complete its whole share"
        );
        assert_eq!(entry.queued, 0, "no tenant may hold phantom credits");
    }

    // And the daemon still shuts down cleanly.
    client.shutdown().expect("clean shutdown after soak");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The slow-loris deadline specifically: a connection holding a partial
/// frame beyond `frame_deadline` is closed by the sweeper even while the
/// daemon is otherwise idle, and a fresh connection still gets service.
#[test]
fn stalled_mid_frame_writer_is_reclaimed_by_the_deadline_sweep() {
    let dir = std::env::temp_dir().join(format!("alpha_loris_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = TuningService::new(
        DesignStore::open(&dir).expect("store opens"),
        SearchConfig {
            max_iterations: 4,
            ..SearchConfig::default()
        },
    );
    let server = NetServer::spawn(
        "127.0.0.1:0",
        service,
        ServerConfig {
            frame_deadline: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .expect("daemon binds");
    let addr = server.local_addr();

    let mut loris = TcpStream::connect(addr).expect("connects");
    loris
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    loris.write_all(&NET_MAGIC).unwrap();
    loris.write_all(&PROTOCOL_VERSION.to_le_bytes()).unwrap();
    loris.write_all(&1024u64.to_le_bytes()).unwrap();
    loris.write_all(&[9u8; 10]).unwrap();

    // Past the deadline the daemon tears the connection down; the read
    // observes the best-effort error frame and/or EOF, never a hang.
    std::thread::sleep(Duration::from_millis(500));
    let mut buf = [0u8; 256];
    let mut saw_close = false;
    for _ in 0..4 {
        match std::io::Read::read(&mut loris, &mut buf) {
            Ok(0) => {
                saw_close = true;
                break;
            }
            Ok(_) => continue, // The typed error frame drains first.
            Err(_) => {
                saw_close = true; // Reset counts as a close.
                break;
            }
        }
    }
    assert!(
        saw_close,
        "the sweeper must close a stalled mid-frame writer"
    );

    // The daemon is unharmed.
    let mut client = Client::connect(addr).expect("fresh connection works");
    let stats = client.store_stats().expect("stats after the loris");
    assert_eq!(stats.jobs_submitted, 0);
    client.shutdown().expect("clean shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
