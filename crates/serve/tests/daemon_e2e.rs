//! End-to-end daemon tests over a real Unix socket: whole-result cache
//! hits with zero transient solves (asserted via the obs counters),
//! calibration reuse across resweeps, malformed-line handling that keeps
//! the connection open, deeply nested and oversize lines, the connection
//! cap, busy backpressure, cancel, stream, per-tenant
//! failure budgets, and a drain/restart cycle that resumes a checkpointed
//! job bit-identically.

use std::path::PathBuf;
use std::time::Duration;

use pulsar_obs::json::{self, Json};
use pulsar_serve::{
    Client, Daemon, JobSpec, ServeConfig, StudyKind, MAX_CONNECTIONS, MAX_REQUEST_LINE,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pulsar-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn small_study(seed: u64) -> JobSpec {
    JobSpec::Study {
        kind: StudyKind::Df,
        samples: 2,
        seed,
        rs: vec![1e3],
        factors: vec![1.0],
    }
}

fn counter(stats_payload: &str, name: &str) -> u64 {
    let doc = json::parse(stats_payload).expect("stats payload is JSON");
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_num)
        .map(|n| n as u64)
        .unwrap_or(0)
}

fn solves(stats_payload: &str) -> u64 {
    counter(stats_payload, "sparse_solves") + counter(stats_payload, "dense_solves")
}

#[test]
fn identical_digest_is_a_zero_solve_cache_hit() {
    let dir = tmp_dir("hit");
    let mut cfg = ServeConfig::new(dir.join("d.sock"));
    cfg.workers = 2;
    let daemon = Daemon::start(cfg).expect("start daemon");
    let mut c = Client::connect_within(daemon.socket(), Duration::from_secs(5)).expect("connect");

    // Cold submit: runs for real.
    let (job1, digest1, cached1) = c.submit(&small_study(7)).expect("submit 1");
    assert!(!cached1, "first submit of a digest cannot be cached");
    let o1 = c.wait(job1).expect("wait 1");
    assert_eq!(o1.state, "done", "{:?}", o1.error);
    let text1 = o1.result.clone().expect("done job has a result");
    assert!(
        text1.starts_with("df study on the paper path"),
        "result must be the CLI-identical report, got: {text1}"
    );

    let before = c.stats().expect("stats");
    assert!(solves(&before) > 0, "cold run must have spent solves");

    // Warm submit, identical digest: answered inline from the
    // whole-result cache with zero additional transient solves.
    let (job2, digest2, cached2) = c.submit(&small_study(7)).expect("submit 2");
    assert_eq!(digest1, digest2);
    assert!(cached2, "identical digest must be a whole-result hit");
    let o2 = c.wait(job2).expect("wait 2");
    assert_eq!(o2.state, "done");
    assert_eq!(
        o2.result.as_deref(),
        Some(text1.as_str()),
        "cache hit must be byte-identical"
    );
    let after = c.stats().expect("stats");
    assert_eq!(
        solves(&before),
        solves(&after),
        "a whole-result hit must spend zero transient solves"
    );
    assert!(counter(&after, "serve_result_cache_hits") >= 1);

    // Distinct digest: a real run again.
    let (job3, digest3, cached3) = c.submit(&small_study(8)).expect("submit 3");
    assert_ne!(digest1, digest3);
    assert!(!cached3);
    let o3 = c.wait(job3).expect("wait 3");
    assert_eq!(o3.state, "done", "{:?}", o3.error);
    assert_ne!(
        o3.result, o1.result,
        "a different seed must change the curves"
    );
    let end = c.stats().expect("stats");
    assert!(
        solves(&end) > solves(&after),
        "a distinct digest must run for real"
    );

    c.shutdown().expect("shutdown");
    daemon.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resweep_reuses_the_cached_calibration() {
    let dir = tmp_dir("resweep");
    let daemon = Daemon::start(ServeConfig::new(dir.join("d.sock"))).expect("start daemon");
    let mut c = Client::connect_within(daemon.socket(), Duration::from_secs(5)).expect("connect");
    let run = |c: &mut Client, spec: &JobSpec| {
        let (job, _, cached) = c.submit(spec).expect("submit");
        assert!(!cached, "a new digest cannot be a whole-result hit");
        let o = c.wait(job).expect("wait");
        assert_eq!(o.state, "done", "{:?}", o.error);
        o.result.expect("done job has a result")
    };

    let first = run(&mut c, &small_study(7));
    let before = c.stats().expect("stats");
    assert_eq!(counter(&before, "serve_calib_cache_hits"), 0);

    // Same kind, samples and seed; new threshold factors: the result
    // cache misses, the calibration is reused.
    let resweep = JobSpec::Study {
        kind: StudyKind::Df,
        samples: 2,
        seed: 7,
        rs: vec![1e3],
        factors: vec![0.9, 1.1],
    };
    let second = run(&mut c, &resweep);
    let after = c.stats().expect("stats");
    assert!(counter(&after, "serve_calib_cache_hits") >= 1);
    // The header's first clause is `df study on the paper path: T0 = ...`.
    let t0 = |text: &str| text.split(',').next().map(str::to_owned);
    assert_eq!(
        t0(&first),
        t0(&second),
        "a reused calibration must report the same T0"
    );
    assert_ne!(first, second, "new factors must change the curves");

    c.shutdown().expect("shutdown");
    daemon.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_line_gets_typed_error_and_connection_survives() {
    let dir = tmp_dir("malformed");
    let daemon = Daemon::start(ServeConfig::new(dir.join("d.sock"))).expect("start daemon");

    // Drive the raw socket to inject garbage between valid requests.
    use std::io::{BufRead, BufReader, Write};
    let stream = std::os::unix::net::UnixStream::connect(daemon.socket()).expect("connect raw");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    let mut line = String::new();
    writer.write_all(b"this is not json\n").expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(
        line.contains("\"ok\":false") && line.contains("\"malformed\""),
        "garbage must get a typed error response, got: {line}"
    );

    line.clear();
    writer.write_all(b"{\"op\":\"nonsense\"}\n").expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(
        line.contains("\"ok\":false") && line.contains("\"usage\""),
        "unknown op must get a usage error, got: {line}"
    );

    // The same connection still serves valid requests.
    line.clear();
    writer.write_all(b"{\"op\":\"stats\"}\n").expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(
        line.contains("\"ok\":true") && line.contains("\"op\":\"stats\""),
        "connection must survive malformed lines, got: {line}"
    );

    line.clear();
    writer
        .write_all(b"{\"op\":\"status\",\"job\":999}\n")
        .expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"unknown-job\""), "got: {line}");

    drop(writer);
    let mut c = Client::connect(daemon.socket()).expect("connect");
    c.shutdown().expect("shutdown");
    daemon.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nested_and_oversize_lines_get_errors_and_the_daemon_keeps_serving() {
    let dir = tmp_dir("hostile");
    let daemon = Daemon::start(ServeConfig::new(dir.join("d.sock"))).expect("start daemon");
    use std::io::{BufRead, BufReader, Write};
    let connect = || {
        let stream = std::os::unix::net::UnixStream::connect(daemon.socket()).expect("connect raw");
        (BufReader::new(stream.try_clone().expect("clone")), stream)
    };
    let stats_answers = |reader: &mut BufReader<_>, writer: &mut std::os::unix::net::UnixStream| {
        let mut line = String::new();
        writer.write_all(b"{\"op\":\"stats\"}\n").expect("write");
        reader.read_line(&mut line).expect("read");
        assert!(
            line.contains("\"ok\":true") && line.contains("\"op\":\"stats\""),
            "got: {line}"
        );
    };

    // Nesting deep enough to overflow a recursive parser's stack is a
    // typed error, and the connection keeps serving.
    let (mut reader, mut writer) = connect();
    let mut line = String::new();
    writer
        .write_all(format!("{}\n", "[".repeat(20_000)).as_bytes())
        .expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(
        line.contains("\"ok\":false") && line.contains("\"malformed\""),
        "a deeply nested line must get a typed error, got: {line}"
    );
    stats_answers(&mut reader, &mut writer);

    // An oversize line is answered and its connection closed; the daemon
    // serves the next one. The write may fail part-way once the daemon
    // has stopped reading.
    let (mut reader, mut writer) = connect();
    let mut big = vec![b'x'; MAX_REQUEST_LINE + 1];
    big.push(b'\n');
    let _ = writer.write_all(&big);
    line.clear();
    reader.read_line(&mut line).expect("read");
    assert!(
        line.contains("\"ok\":false") && line.contains("\"malformed\""),
        "an oversize line must get a typed error, got: {line}"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("read"), 0, "closed");
    let (mut reader, mut writer) = connect();
    stats_answers(&mut reader, &mut writer);

    drop(writer);
    let mut c = Client::connect(daemon.socket()).expect("connect");
    c.shutdown().expect("shutdown");
    daemon.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connections_past_the_cap_get_busy_and_a_freed_slot_serves_again() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    let dir = tmp_dir("conn-cap");
    let daemon = Daemon::start(ServeConfig::new(dir.join("d.sock"))).expect("start daemon");
    let connect = || {
        let stream = UnixStream::connect(daemon.socket()).expect("connect raw");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        (BufReader::new(stream.try_clone().expect("clone")), stream)
    };
    // A daemon that answers `busy` may hang up before the request lands,
    // so the write may fail; the reply is read either way.
    let ask_stats = |(reader, writer): &mut (BufReader<UnixStream>, UnixStream)| {
        let mut line = String::new();
        let _ = writer.write_all(b"{\"op\":\"stats\"}\n");
        reader.read_line(&mut line).expect("read");
        line
    };

    // Every held connection has been answered, so each holds a handler.
    let mut held: Vec<_> = (0..MAX_CONNECTIONS).map(|_| connect()).collect();
    for conn in &mut held {
        assert!(ask_stats(conn).contains("\"ok\":true"));
    }

    // One past the cap gets a single busy line, then the daemon hangs up.
    let (mut reader, _writer) = connect();
    let mut line = String::new();
    reader.read_line(&mut line).expect("read busy line");
    assert!(
        line.contains("\"ok\":false") && line.contains("\"kind\":\"busy\""),
        "got: {line}"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("read"), 0, "closed");

    // Close one held connection and wait for its handler to hang up too.
    let (mut reader, writer) = held.pop().expect("a held connection");
    writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("read"), 0, "closed");
    drop((reader, writer));

    // The slot goes back as the handler returns, an instant after the
    // hang-up: a probe that still lands on a full daemon is told `busy`
    // and closed, so at most one probe is open at a time.
    let mut answered = false;
    for _ in 0..200 {
        let reply = ask_stats(&mut connect());
        if reply.contains("\"ok\":true") && reply.contains("\"op\":\"stats\"") {
            answered = true;
            break;
        }
        assert!(reply.contains("\"kind\":\"busy\""), "got: {reply}");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(answered, "a freed slot must serve a new connection");

    drop(held);
    let mut c = Client::connect_within(daemon.socket(), Duration::from_secs(5)).expect("connect");
    c.shutdown().expect("shutdown");
    daemon.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn backpressure_cancel_and_stream() {
    let dir = tmp_dir("backpressure");
    let mut cfg = ServeConfig::new(dir.join("d.sock"));
    cfg.workers = 1;
    cfg.queue_depth = 1;
    let daemon = Daemon::start(cfg).expect("start daemon");
    let mut c = Client::connect_within(daemon.socket(), Duration::from_secs(5)).expect("connect");

    // One worker, queue depth 1: rapid distinct submits must trip the
    // typed busy rejection long before the worker can drain real
    // Monte Carlo jobs. The first job is admitted and taken off the queue
    // before the burst, so the burst always finds the slot free and the
    // worker occupied (otherwise the second submit can race the worker's
    // first dequeue and see `busy` with only one job admitted).
    let (first, _, _) = c.submit(&small_study(100)).expect("first submit");
    let mut admitted = vec![first];
    while c.status(first).expect("status").state == "queued" {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut saw_busy = false;
    for seed in 101..120 {
        match c.submit(&small_study(seed)) {
            Ok((job, _, _)) => admitted.push(job),
            Err(e) => {
                assert_eq!(e.kind, "busy", "expected busy, got {e}");
                saw_busy = true;
                break;
            }
        }
    }
    assert!(
        saw_busy,
        "20 rapid submits never hit the depth-1 queue bound"
    );
    assert!(admitted.len() >= 2, "at least running + queued");

    // The queued (not yet running) job can be cancelled and never runs.
    let last = *admitted.last().expect("non-empty");
    let o = c.cancel(last).expect("cancel");
    assert!(
        o.state == "cancelled" || o.state == "running",
        "cancel of a queued job: got {}",
        o.state
    );
    let o = c.wait(last).expect("wait cancelled");
    assert_eq!(o.state, "cancelled");

    // Every admitted job reaches a terminal state; the first ran to
    // completion and its journal streams (events, then the marker).
    let first = admitted[0];
    let o = c.wait(first).expect("wait first");
    assert_eq!(o.state, "done", "{:?}", o.error);
    let mut events = 0;
    let mut c2 = Client::connect(daemon.socket()).expect("second connection");
    let state = c2.stream(first, |_payload| events += 1).expect("stream");
    assert_eq!(state, "done");
    assert!(events > 0, "a completed study job must have journal events");

    let stats = c.stats().expect("stats");
    assert!(counter(&stats, "serve_busy_rejections") >= 1);
    assert!(counter(&stats, "serve_jobs_cancelled") >= 1);

    c.shutdown().expect("shutdown");
    daemon.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queued_cancel_is_counted_before_wait_returns() {
    let dir = tmp_dir("cancel-count");
    let mut cfg = ServeConfig::new(dir.join("d.sock"));
    cfg.workers = 1;
    let daemon = Daemon::start(cfg).expect("start daemon");
    let mut c = Client::connect_within(daemon.socket(), Duration::from_secs(5)).expect("connect");

    // A wide sweep keeps the only worker busy for seconds, so it cannot
    // pop the queued job before the assertions: the cancel itself must
    // have counted it.
    let busy_spec = JobSpec::Study {
        kind: StudyKind::Df,
        samples: 4,
        seed: 3,
        rs: (1..=40).map(|k| f64::from(k) * 2.5e3).collect(),
        factors: vec![1.0],
    };
    let (busy, _, _) = c.submit(&busy_spec).expect("submit busy job");
    while c.status(busy).expect("status").state == "queued" {
        std::thread::sleep(Duration::from_millis(1));
    }
    let (queued, _, _) = c.submit(&small_study(55)).expect("submit queued job");
    c.cancel(queued).expect("cancel queued job");
    assert_eq!(c.wait(queued).expect("wait").state, "cancelled");
    let stats = c.stats().expect("stats");
    assert_eq!(
        c.status(busy).expect("status").state,
        "running",
        "the worker must still be busy with the first job"
    );
    assert_eq!(counter(&stats, "serve_jobs_cancelled"), 1);

    c.shutdown().expect("shutdown");
    daemon.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_failure_budget_rejects_repeat_offenders() {
    let dir = tmp_dir("tenant");
    let mut cfg = ServeConfig::new(dir.join("d.sock"));
    cfg.tenant_budget = Some(1);
    let daemon = Daemon::start(cfg).expect("start daemon");
    let mut c = Client::connect_within(daemon.socket(), Duration::from_secs(5)).expect("connect");

    // A campaign on unparseable netlist text fails (and is not cached).
    let broken = JobSpec::Campaign {
        netlist: "this is not an iscas85 netlist".to_owned(),
        stride: 1,
    };
    let (job, _, _) = c
        .submit_with(&broken, Some("team-a"), None, None)
        .expect("submit broken");
    let o = c.wait(job).expect("wait broken");
    assert_eq!(o.state, "failed", "{o:?}");

    // team-a is now over its failed-job budget of 1.
    let e = c
        .submit_with(&small_study(1), Some("team-a"), None, None)
        .expect_err("over-budget tenant must be rejected");
    assert_eq!(e.kind, "tenant-budget");

    // Other tenants are unaffected.
    let (job, _, _) = c
        .submit_with(&small_study(1), Some("team-b"), None, None)
        .expect("submit team-b");
    let o = c.wait(job).expect("wait team-b");
    assert_eq!(o.state, "done", "{:?}", o.error);

    // A job its deadline cuts short is cancelled, not failed, so it bills
    // the tenant nothing.
    let (job, _, _) = c
        .submit_with(&small_study(2), Some("team-b"), Some(0), None)
        .expect("submit zero-deadline job");
    let o = c.wait(job).expect("wait zero-deadline job");
    assert_eq!(o.state, "cancelled", "{:?}", o.error);
    c.submit_with(&small_study(3), Some("team-b"), None, None)
        .expect("a deadline cut is not a failed job");

    let stats = c.stats().expect("stats");
    assert!(counter(&stats, "serve_tenant_rejections") >= 1);
    assert!(counter(&stats, "serve_jobs_failed") >= 1);

    c.shutdown().expect("shutdown");
    daemon.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_checkpoints_and_restart_resumes_bit_identically() {
    let dir = tmp_dir("drain");
    let spool = dir.join("spool");
    let spec = JobSpec::Study {
        kind: StudyKind::Df,
        samples: 6,
        seed: 42,
        rs: vec![1e3, 30e3],
        factors: vec![0.9, 1.1],
    };

    // Reference: a daemon that runs the job to completion untouched.
    let mut cfg = ServeConfig::new(dir.join("ref.sock"));
    cfg.spool = Some(dir.join("ref-spool"));
    let daemon = Daemon::start(cfg).expect("start ref daemon");
    let mut c = Client::connect_within(daemon.socket(), Duration::from_secs(5)).expect("connect");
    let (job, _, _) = c.submit(&spec).expect("submit ref");
    let reference = c.wait(job).expect("wait ref");
    assert_eq!(reference.state, "done", "{:?}", reference.error);
    let reference_text = reference.result.expect("ref result");
    c.shutdown().expect("shutdown ref");
    daemon.join().expect("join ref");

    // Interrupted daemon: shut down while the job is (most likely)
    // mid-run. Whatever progress it made is in the spool checkpoint.
    let mut cfg = ServeConfig::new(dir.join("a.sock"));
    cfg.spool = Some(spool.clone());
    let daemon = Daemon::start(cfg).expect("start daemon a");
    let mut c = Client::connect_within(daemon.socket(), Duration::from_secs(5)).expect("connect");
    let (job, _, _) = c.submit(&spec).expect("submit a");
    daemon.shutdown();
    let o = c.wait(job).expect("wait a");
    assert!(
        o.state == "cancelled" || o.state == "done",
        "drained job must be cancelled (or already done), got {}",
        o.state
    );
    daemon.join().expect("join a");

    // Restarted daemon, same spool: the resubmitted digest resumes from
    // the checkpoint and the final curves are byte-identical to the
    // uninterrupted run.
    let mut cfg = ServeConfig::new(dir.join("b.sock"));
    cfg.spool = Some(spool);
    let daemon = Daemon::start(cfg).expect("start daemon b");
    let mut c = Client::connect_within(daemon.socket(), Duration::from_secs(5)).expect("connect");
    let (job, _, _) = c.submit(&spec).expect("submit b");
    let o = c.wait(job).expect("wait b");
    assert_eq!(o.state, "done", "{:?}", o.error);
    assert_eq!(
        o.result.as_deref(),
        Some(reference_text.as_str()),
        "resumed run must be bit-identical to an uninterrupted run"
    );
    c.shutdown().expect("shutdown b");
    let summary = daemon.join().expect("join b");
    assert!(summary.jobs_completed >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_writes_a_serve_manifest() {
    let dir = tmp_dir("manifest");
    let manifest_path = dir.join("serve.json");
    let mut cfg = ServeConfig::new(dir.join("d.sock"));
    cfg.metrics_out = Some(manifest_path.clone());
    let daemon = Daemon::start(cfg).expect("start daemon");
    let mut c = Client::connect_within(daemon.socket(), Duration::from_secs(5)).expect("connect");
    let (job, _, _) = c.submit(&small_study(3)).expect("submit");
    let o = c.wait(job).expect("wait");
    assert_eq!(o.state, "done", "{:?}", o.error);
    c.shutdown().expect("shutdown");
    let summary = daemon.join().expect("join");
    assert_eq!(summary.jobs_admitted, 1);
    assert_eq!(summary.jobs_completed, 1);

    let text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let doc = json::parse(&text).expect("manifest is JSON");
    assert_eq!(
        doc.get("kind").and_then(Json::as_str),
        Some("serve"),
        "{text}"
    );
    let serve = doc.get("serve").expect("serve block");
    assert_eq!(serve.get("jobs_admitted").and_then(Json::as_num), Some(1.0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_zero_worker_config_reports_the_one_worker_it_runs() {
    let dir = tmp_dir("workers0");
    let manifest_path = dir.join("serve.json");
    let mut cfg = ServeConfig::new(dir.join("d.sock"));
    cfg.workers = 0;
    cfg.metrics_out = Some(manifest_path.clone());
    let daemon = Daemon::start(cfg).expect("start daemon");
    assert_eq!(daemon.workers(), 1);
    daemon.shutdown();
    daemon.join().expect("join");
    let text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let doc = json::parse(&text).expect("manifest is JSON");
    assert_eq!(
        doc.get("threads").and_then(Json::as_num),
        Some(1.0),
        "{text}"
    );
    let serve = doc.get("serve").expect("serve block");
    assert_eq!(
        serve.get("workers").and_then(Json::as_num),
        Some(1.0),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
