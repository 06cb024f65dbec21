//! End-to-end contracts of the sweep-as-a-service daemon:
//!
//! * a served job's final stream digest — and its whole `results` array —
//!   is byte-identical to the same grid run through an in-process
//!   `FleetRunner`, pinned against the same constant as `digest_pin.rs`
//!   and the dist tests;
//! * two concurrent jobs share the pool fairly — their progress streams
//!   interleave, neither starves;
//! * a mid-sweep `partial` query answers a byte-exact prefix of the final
//!   summary's `results` array;
//! * a client disconnect cancels its job and frees the pool for the next
//!   tenant;
//! * the metrics endpoint (JSON-lines and plain HTTP) renders the daemon
//!   counters;
//! * a hostile line (a million nested brackets) is a counted protocol
//!   error, not a dead daemon.
//!
//! Clients here are the real [`quanto_serve::client`] plus hand-rolled
//! sockets where the test needs to misbehave (disconnect mid-sweep) or
//! observe mid-protocol state (the job id before the final line).

use quanto_fleet::{FleetRunner, GridSpec};
use quanto_serve::{client, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `digest_pin.rs`'s `pin_batch()` as grid text, with its recorded stream
/// digest — the daemon must fold the identical bytes.
const PIN_BATCH_STREAM_DIGEST: u64 = 0xf73f_b2e3_9f24_1280;
const PIN_BATCH_GRID: &str = "
[grid]
name = pin_batch
seconds = 2

[cell.lpl]
app = lpl
interference = 0.18
seeds = 1..2
channels = 17, 26
name = lpl_ch{channel}_seed{seed}

[cell.blink]
app = blink

[cell.bounce]
app = bounce

[cell.idle]
app = idle
seconds = 1
";
const PIN_BATCH_LEN: usize = 7;

/// Six short Bounce cells, a few host milliseconds each.
const BOUNCE_GRID: &str = "
[grid]
name = bounce_grid
seconds = 2

[cell.bounce]
app = bounce
seeds = 1..6
name = bounce_seed{seed}
";

/// Six cells whose last one simulates 150× longer than the others: five
/// 2 s Bounce cells, then a 300 s one.  Cells are claimed in order, so a
/// job's first progress events arrive within a few short cells of its
/// submission, while its final event waits for the long cell — a window
/// two orders of magnitude wider than a loopback handshake at any build
/// profile or simulator speed, since both scale together.  The tests that
/// act between a job's first and last events use it.
const SLOW_TAIL_GRID: &str = "
[grid]
name = slow_tail_grid
seconds = 2

[cell.bounce]
app = bounce
seeds = 1..5
name = bounce_seed{seed}

[cell.tail]
app = bounce
seconds = 300
name = bounce_tail
";

fn start_server(workers: usize) -> quanto_serve::ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers,
            cache_dir: None,
        },
    )
    .expect("bind server")
    .start()
}

/// The `results` array (with its brackets) out of a summary document —
/// it is always the last field.
fn results_array(summary: &str) -> &str {
    let start = summary.find("\"results\":").expect("summary has results") + "\"results\":".len();
    &summary[start..summary.len() - 1]
}

#[test]
fn served_digest_is_byte_identical_to_in_process_and_pinned() {
    let handle = start_server(3);
    let addr = handle.addr().to_string();

    let mut completions = Vec::new();
    let outcome = client::run_sweep(&addr, PIN_BATCH_GRID, &Default::default(), |event| {
        completions.push(event.to_string());
    })
    .expect("served sweep completes");
    assert_eq!(outcome.total, PIN_BATCH_LEN);
    assert_eq!(outcome.warm, 0, "no cache configured, nothing is warm");
    assert_eq!(completions.len(), PIN_BATCH_LEN, "one event per scenario");
    for (k, event) in completions.iter().enumerate() {
        assert!(
            event.contains(&format!("\"completed\":{}", k + 1)),
            "events stream in submission order: {event}"
        );
    }

    let pinned = format!("{PIN_BATCH_STREAM_DIGEST:#018x}");
    assert_eq!(
        client::digest_of(&outcome.summary),
        Some(pinned.as_str()),
        "served digest must match the pinned stream digest"
    );

    // Byte-identity against the in-process runner: same digest field, and
    // the whole per-scenario results array must be the identical bytes.
    let batch = GridSpec::parse(PIN_BATCH_GRID)
        .expect("pin grid parses")
        .expand()
        .expect("pin grid expands");
    let report = FleetRunner::new(3).run(batch);
    assert_eq!(report.digest(), PIN_BATCH_STREAM_DIGEST);
    let local = report.summary_json();
    assert_eq!(
        results_array(&outcome.summary),
        results_array(&local),
        "served results array must be byte-identical to the in-process one"
    );

    handle.shutdown();
}

#[test]
fn two_concurrent_jobs_share_the_pool_and_interleave() {
    let handle = start_server(2);
    let addr = handle.addr().to_string();
    let timeline: Arc<Mutex<Vec<(usize, Instant)>>> = Arc::new(Mutex::new(Vec::new()));

    let clients: Vec<_> = (0..2)
        .map(|tenant| {
            let addr = addr.clone();
            let timeline = timeline.clone();
            std::thread::spawn(move || {
                client::run_sweep(&addr, SLOW_TAIL_GRID, &Default::default(), |_| {
                    timeline.lock().unwrap().push((tenant, Instant::now()));
                })
                .expect("served sweep completes")
            })
        })
        .collect();
    let outcomes: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    assert!(outcomes.iter().all(|o| o.total == 6));
    assert_ne!(outcomes[0].job, outcomes[1].job);
    // Identical grids must fold identical digests, tenancy notwithstanding.
    assert_eq!(
        client::digest_of(&outcomes[0].summary),
        client::digest_of(&outcomes[1].summary)
    );

    // Fairness: each tenant's event span overlaps the other's — neither
    // job ran to completion while the other starved.
    let timeline = timeline.lock().unwrap();
    let span = |tenant: usize| {
        let stamps: Vec<_> = timeline
            .iter()
            .filter(|(t, _)| *t == tenant)
            .map(|(_, at)| *at)
            .collect();
        assert_eq!(stamps.len(), 6, "tenant {tenant} saw all its events");
        (*stamps.first().unwrap(), *stamps.last().unwrap())
    };
    let (first0, last0) = span(0);
    let (first1, last1) = span(1);
    assert!(
        first0 < last1 && first1 < last0,
        "the two jobs' progress streams must interleave"
    );

    handle.shutdown();
}

#[test]
fn partial_query_returns_a_byte_exact_prefix_of_the_final_summary() {
    let handle = start_server(2);
    let addr = handle.addr().to_string();

    // Hand-rolled submit so the job id is visible mid-protocol.
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut request = String::from("{\"t\":\"submit\",\"proto\":1,\"grid\":");
    quanto_fleet::wire::push_json_str(&mut request, SLOW_TAIL_GRID);
    request.push_str(",\"seconds\":null,\"seeds\":null,\"pairs\":null}\n");
    writer.write_all(request.as_bytes()).expect("submit");

    let mut line = String::new();
    reader.read_line(&mut line).expect("accepted line");
    assert!(line.starts_with("{\"t\":\"accepted\","), "{line}");
    let job: u64 = {
        let start = line.find("\"job\":").expect("job id") + 6;
        line[start..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("job id parses")
    };

    // Let a couple of cells merge, then snapshot from a second connection
    // while the long tail cell still holds the job open.
    for _ in 0..2 {
        line.clear();
        reader.read_line(&mut line).expect("progress line");
        assert!(line.starts_with("{\"t\":\"progress\","), "{line}");
    }
    let snapshot = client::partial(&addr, job).expect("partial answers mid-sweep");
    assert_eq!(snapshot.job, job);
    assert_eq!(snapshot.total, 6);
    assert!(
        snapshot.completed >= 2,
        "two progress events were already streamed"
    );

    // Drain to the final summary.
    let summary = loop {
        line.clear();
        reader.read_line(&mut line).expect("stream line");
        if line.starts_with("{\"t\":\"final\",") {
            let start = line.find("\"summary\":").expect("summary payload") + "\"summary\":".len();
            break line.trim_end()[start..line.trim_end().len() - 1].to_string();
        }
        assert!(line.starts_with("{\"t\":\"progress\","), "{line}");
    };

    // The snapshot (sans closing bracket) must be a byte-exact prefix of
    // the final results array, ending on an element boundary.
    let final_results = results_array(&summary);
    let prefix = &snapshot.results[..snapshot.results.len() - 1];
    assert!(
        final_results.starts_with(prefix),
        "partial results must be a byte-exact prefix\n partial: {}\n final: {final_results}",
        snapshot.results
    );
    let boundary = final_results.as_bytes()[prefix.len()];
    assert!(
        boundary == b',' || boundary == b']',
        "prefix must end on an element boundary"
    );

    // Completed jobs answer `done` until their session retires them;
    // unknown jobs are a server-side error.
    match client::partial(&addr, job + 1000) {
        Err(client::ClientError::Server(why)) => assert!(why.contains("unknown job"), "{why}"),
        other => panic!("expected an unknown-job error, got {other:?}"),
    }

    handle.shutdown();
}

#[test]
fn client_disconnect_cancels_the_job_and_frees_the_pool() {
    let handle = start_server(1);
    let addr = handle.addr().to_string();

    // Submit, read the accepted line, then vanish mid-sweep.
    {
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut request = String::from("{\"t\":\"submit\",\"proto\":1,\"grid\":");
        quanto_fleet::wire::push_json_str(&mut request, BOUNCE_GRID);
        request.push_str("}\n");
        writer.write_all(request.as_bytes()).expect("submit");
        let mut line = String::new();
        reader.read_line(&mut line).expect("accepted line");
        assert!(line.starts_with("{\"t\":\"accepted\","), "{line}");
    } // both halves drop: EOF on the daemon's watchdog

    // The daemon notices, cancels, and retires the job.
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.active_jobs() != 0 {
        assert!(
            Instant::now() < deadline,
            "disconnected job was never retired"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The single worker is free again: a fresh tenant completes.
    let outcome = client::run_sweep(
        &addr,
        "[grid]\nname = after\nseconds = 1\n\n[cell.idle]\napp = idle\n",
        &Default::default(),
        |_| {},
    )
    .expect("the pool serves the next tenant");
    assert_eq!(outcome.total, 1);

    handle.shutdown();
}

#[test]
fn metrics_render_daemon_counters_over_both_transports() {
    let handle = start_server(2);
    let addr = handle.addr().to_string();
    client::run_sweep(
        &addr,
        "[grid]\nname = m\nseconds = 1\n\n[cell.idle]\napp = idle\n",
        &Default::default(),
        |_| {},
    )
    .expect("sweep completes");
    // The session retires the job just after the final line the client
    // returned on — wait for it so `serve.jobs.active` reads 0.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.active_jobs() != 0 {
        assert!(Instant::now() < deadline, "finished job was never retired");
        std::thread::sleep(Duration::from_millis(10));
    }

    let text = client::metrics(&addr).expect("metrics reply");
    for needle in [
        "counter serve.jobs.submitted 1",
        "counter serve.jobs.completed 1",
        "counter serve.scenarios.executed 1",
        "counter serve.queries.metrics 1",
        "gauge serve.jobs.active 0",
        "gauge serve.workers 2",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // The same document over plain HTTP, for curl and browsers.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("request");
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .expect("response");
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    assert!(response.contains("Content-Type: text/plain"), "{response}");
    assert!(
        response.contains("counter serve.queries.metrics 2"),
        "the HTTP hit counts too:\n{response}"
    );

    handle.shutdown();
}

#[test]
fn deeply_nested_line_is_a_protocol_error_not_a_crash() {
    let handle = start_server(1);
    let addr = handle.addr().to_string();
    {
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut line = "[".repeat(1_000_000);
        line.push('\n');
        writer.write_all(line.as_bytes()).expect("hostile line");
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .expect("error reply");
        assert!(reply.starts_with("{\"t\":\"error\","), "{reply}");
    }
    let text = client::metrics(&addr).expect("the daemon still answers");
    assert!(
        text.contains("counter serve.errors.protocol 1\n"),
        "the hostile line must count once:\n{text}"
    );
    handle.shutdown();
}
