//! End-to-end proof of the `diq serve` contract: an in-process server, a
//! farm of workers on loopback, two clients racing the same spec, and a
//! worker killed mid-sweep. Asserts the three service invariants:
//!
//! 1. every point is executed (and recorded) at most once, worker crash
//!    included;
//! 2. the final store is byte-identical to a single-threaded `diq sweep` of
//!    the same spec;
//! 3. the losing concurrent submission reports 100% cache/dedup hits — it
//!    rode entirely on its peer's executions.

use diq::exp::{sweep, ExperimentSpec, Point, ResultStore};
use diq::isa::ProcessorConfig;
use diq::sched::SchedulerConfig;
use diq::serve::protocol::{read_frame, write_frame, FromServer, ToServer, PROTOCOL_VERSION};
use diq::serve::{run_worker, Client, ServeConfig, WorkerOptions};
use diq::workload::suite;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// 2 schemes x 2 workloads x 2 counts = 8 distinct points, all small.
const SPEC: &str = r#"{
    "name": "serve-e2e",
    "instructions": [300, 500],
    "schemes": ["MB_distr", "IQ_64_64"],
    "workloads": ["gzip", "swim"]
}"#;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diq-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn distributed_sweep_with_worker_crash_matches_single_process_sweep() {
    let served_dir = tmp_dir("served");
    let swept_dir = tmp_dir("swept");

    let handle = ServeConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: served_dir.clone(),
        lease: Duration::from_secs(10),
        quiet: true,
    }
    .spawn()
    .unwrap();
    let addr = handle.addr().to_string();

    // A doomed worker: registers, announces idle, takes one assignment,
    // then "crashes" (drops the socket without delivering). The server must
    // notice the EOF and reassign its lease to a surviving worker.
    let mut doomed = TcpStream::connect(&addr).unwrap();
    write_frame(
        &mut doomed,
        &ToServer::Register {
            name: "doomed".into(),
            protocol: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    let FromServer::Registered { .. } = read_frame(&mut doomed).unwrap() else {
        panic!("expected Registered");
    };
    write_frame(&mut doomed, &ToServer::Idle).unwrap();

    // Two clients race the identical spec. The submissions serialize on the
    // server, so exactly one claims the whole grid; the doomed worker grabs
    // its first point the moment the claimer's dispatch runs.
    let submits: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client
                    .submit_and_watch(SPEC, None, Duration::from_millis(10))
                    .unwrap()
            })
        })
        .collect();

    // Let the doomed worker receive its assignment, then kill it.
    let FromServer::Assign { .. } = read_frame(&mut doomed).unwrap() else {
        panic!("expected Assign");
    };
    drop(doomed);

    // The survivors drain everything, the crashed point included.
    let workers: Vec<_> = (0..3)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                run_worker(
                    &addr,
                    &WorkerOptions {
                        name: format!("survivor-{i}"),
                        ..WorkerOptions::default()
                    },
                )
                .unwrap()
            })
        })
        .collect();

    let mut summaries: Vec<_> = submits.into_iter().map(|t| t.join().unwrap()).collect();

    // (3) The two racing clients split the grid 8/0: one computed all of
    // it, the other rode the in-flight/stored dedup for 100% cache hits.
    summaries.sort_by_key(|s| s.computed);
    assert_eq!(summaries[0].total, 8);
    assert_eq!(summaries[1].total, 8);
    assert_eq!(summaries[0].computed, 0, "loser shares every execution");
    assert_eq!(summaries[1].computed, 8, "winner claims the whole grid");
    assert_eq!(summaries[0].cached, 8);
    assert!((summaries[0].cache_hit_pct - 100.0).abs() < 1e-12);

    // (1) At most once: 8 distinct points, 8 accepted results.
    assert_eq!(handle.results_accepted(), 8);

    // Stop the server first — the survivors run until it closes their
    // connections — then check their execution counts add up exactly: the
    // doomed worker's point ran once on a survivor, never twice.
    Client::connect(&addr).unwrap().shutdown_server().unwrap();
    handle.wait().unwrap();
    let executed: usize = workers
        .into_iter()
        .map(|t| t.join().unwrap().executed)
        .sum();
    assert_eq!(executed, 8, "reassigned point executes exactly once");

    // (2) Byte identity: a single-threaded in-process sweep of the same
    // spec produces the same store.jsonl, byte for byte, and the same
    // manifest.
    let spec = ExperimentSpec::from_json(SPEC).unwrap();
    let swept_store = ResultStore::open(&swept_dir).unwrap();
    let outcome = sweep(&spec, &swept_store, 1).unwrap();
    assert_eq!(outcome.computed, 8);

    let served_store = ResultStore::open(&served_dir).unwrap();
    let served_bytes = served_store.raw_bytes().unwrap();
    assert!(!served_bytes.is_empty());
    assert_eq!(
        served_bytes,
        swept_store.raw_bytes().unwrap(),
        "served store must be byte-identical to a single-process sweep"
    );
    assert_eq!(
        served_store.read_manifest("serve-e2e").unwrap(),
        swept_store.read_manifest("serve-e2e").unwrap()
    );

    let _ = std::fs::remove_dir_all(&served_dir);
    let _ = std::fs::remove_dir_all(&swept_dir);
}

#[test]
fn worker_losing_the_server_mid_point_exits_with_an_error() {
    // A fake server assigns one point and then vanishes. The worker is left
    // computing under a lease nobody is renewing; once it notices — a dead
    // heartbeat socket or a failed result delivery — `run_worker` must
    // return `Err`, never a clean report. (The pre-fix worker swallowed the
    // failed delivery as a clean retirement, so `diq worker` exited zero
    // and smoke tests green-washed a crashed farm.)
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    let fake_server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let ToServer::Register { .. } = read_frame(&mut sock).unwrap() else {
            panic!("expected Register");
        };
        write_frame(&mut sock, &FromServer::Registered { worker: 1 }).unwrap();
        loop {
            match read_frame::<ToServer, _>(&mut sock).unwrap() {
                ToServer::Idle => break,
                ToServer::Heartbeat => {}
                other => panic!("expected Idle, got {other:?}"),
            }
        }
        // A point big enough that several 1 ms heartbeats fire while it
        // executes — the worker must notice the dead socket mid-compute.
        let point = Point::new(
            ProcessorConfig::hpca2004(),
            SchedulerConfig::mb_distr(),
            suite::by_name("gzip").unwrap(),
            20_000,
        );
        write_frame(&mut sock, &FromServer::Assign { lease: 7, point }).unwrap();
        drop(sock); // the server "crashes" mid-point
    });

    let report = run_worker(
        &addr,
        &WorkerOptions {
            name: "orphaned".into(),
            heartbeat: Duration::from_millis(1),
        },
    );
    fake_server.join().unwrap();
    assert!(
        report.is_err(),
        "a worker that computed a point it could not deliver must exit \
         nonzero, got {report:?}"
    );
}

#[test]
fn submit_against_a_warm_store_is_pure_cache() {
    // A served sweep after an in-process sweep of the same spec: nothing
    // executes, no worker is even needed, and the reply is immediate.
    let dir = tmp_dir("warm");
    let spec = ExperimentSpec::from_json(SPEC).unwrap();
    let store = ResultStore::open(&dir).unwrap();
    sweep(&spec, &store, 2).unwrap();
    let before = store.raw_bytes().unwrap();

    let handle = ServeConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: dir.clone(),
        quiet: true,
        ..ServeConfig::default()
    }
    .spawn()
    .unwrap();
    let addr = handle.addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    let (_, view) = client.submit(SPEC, None).unwrap();
    assert!(view.done, "warm submit completes synchronously");
    assert_eq!(view.computed, 0);
    assert_eq!(view.cached, 8);
    let summary = view.summary.expect("done job carries its summary");
    assert!((summary.cache_hit_pct - 100.0).abs() < 1e-12);

    client.shutdown_server().unwrap();
    handle.wait().unwrap();
    let after = ResultStore::open(&dir).unwrap().raw_bytes().unwrap();
    assert_eq!(after, before, "store untouched by a cache-only job");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Registers a raw worker connection and announces it idle.
fn raw_worker(addr: &str, name: &str) -> TcpStream {
    let mut sock = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut sock,
        &ToServer::Register {
            name: name.into(),
            protocol: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    let FromServer::Registered { .. } = read_frame(&mut sock).unwrap() else {
        panic!("expected Registered");
    };
    write_frame(&mut sock, &ToServer::Idle).unwrap();
    sock
}

#[test]
fn a_shared_key_is_done_only_once_its_record_is_stored() {
    // Job A owns gzip and swim, in that grid order; job B (swim only)
    // rides on A's swim. When swim's result arrives first, A must hold the
    // record back until gzip lands — and B must not report done, nor write
    // its manifest, while swim is still outside the store: a shutdown at
    // that point would lose the record B claims to have.
    const SPEC_A: &str = r#"{"name":"order-a","instructions":[300],
        "schemes":["MB_distr"],"workloads":["gzip","swim"]}"#;
    const SPEC_B: &str = r#"{"name":"order-b","instructions":[300],
        "schemes":["MB_distr"],"workloads":["swim"]}"#;
    let dir = tmp_dir("order");
    let handle = ServeConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: dir.clone(),
        quiet: true,
        ..ServeConfig::default()
    }
    .spawn()
    .unwrap();
    let addr = handle.addr().to_string();
    let mut workers = [raw_worker(&addr, "w0"), raw_worker(&addr, "w1")];

    let mut client = Client::connect(&addr).unwrap();
    let (job_a, view) = client.submit(SPEC_A, None).unwrap();
    assert_eq!(view.computed, 2);
    let (job_b, view) = client.submit(SPEC_B, None).unwrap();
    assert_eq!((view.computed, view.cached), (0, 1));

    // Each worker holds one of A's two points; find who holds which.
    let mut leases = Vec::new();
    for sock in &mut workers {
        let FromServer::Assign { lease, point } = read_frame(&mut *sock).unwrap() else {
            panic!("expected Assign");
        };
        leases.push((lease, point));
    }
    let deliver = |sock: &mut TcpStream, (lease, point): &(u64, Point)| {
        let record = diq::exp::PointRecord {
            key: point.key(),
            result: diq::exp::PointResult::from_stats(point, &point.execute()),
        };
        write_frame(
            sock,
            &ToServer::Result {
                lease: *lease,
                record,
            },
        )
        .unwrap();
    };
    let swim = usize::from(leases[1].1.benchmark() == "swim");
    assert_eq!(leases[swim].1.benchmark(), "swim");
    deliver(&mut workers[swim], &leases[swim]);
    while handle.results_accepted() < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }

    let store = ResultStore::open(&dir).unwrap();
    assert!(store.load().unwrap().is_empty(), "swim waits for gzip");
    assert!(
        !client.status(job_b).unwrap().done,
        "job B is not done while its record is held back"
    );
    assert!(store.read_manifest("order-b").is_err(), "no manifest yet");

    // gzip lands: both records go out in A's grid order, then both jobs
    // finish.
    deliver(&mut workers[1 - swim], &leases[1 - swim]);
    let poll = Duration::from_millis(5);
    assert_eq!(client.watch(job_a, poll).unwrap().computed, 2);
    assert_eq!(client.watch(job_b, poll).unwrap().cached, 1);
    assert_eq!(store.load().unwrap().len(), 2);
    assert_eq!(store.read_manifest("order-b").unwrap().points.len(), 1);

    client.shutdown_server().unwrap();
    handle.wait().unwrap();
    let swept_dir = tmp_dir("order-swept");
    let swept = ResultStore::open(&swept_dir).unwrap();
    sweep(&ExperimentSpec::from_json(SPEC_A).unwrap(), &swept, 1).unwrap();
    assert_eq!(store.raw_bytes().unwrap(), swept.raw_bytes().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&swept_dir);
}
