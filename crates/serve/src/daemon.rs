//! The daemon: Unix-socket listener, protocol front-end, worker pool,
//! and graceful drain.
//!
//! Threads:
//!
//! - the **accept loop** (joined) polls a non-blocking `UnixListener`
//!   (~25 ms) so it notices the shutdown token without a connection;
//! - one detached **connection handler** per client, reading request
//!   lines and writing response lines (a `stream` op occupies its
//!   connection until the job ends — use a second connection for
//!   control), at most [`MAX_CONNECTIONS`] at once;
//! - `workers` **worker threads** (joined) popping job ids off the
//!   bounded [`JobQueue`] and executing them through the cross-job
//!   [`ServeCaches`].
//!
//! Shutdown (client `shutdown` op, [`Daemon::shutdown`], or a bare
//! cancel of [`Daemon::token`], e.g. from a SIGINT handler) cancels the
//! daemon token — which, being the parent of every job token, interrupts
//! running jobs mid-solve so their durable runs flush checkpoints — and
//! the accept loop, which polls that token, closes the queue and lets the
//! workers drain the backlog as `cancelled` jobs. [`Daemon::join`]
//! collects the threads, removes the socket, writes the serve manifest,
//! and returns a [`ServeSummary`].

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use pulsar_obs::{CancelReason, CancelToken, Counter, Recorder, RunManifest, ServeManifest};

use crate::cache::ServeCaches;
use crate::job::{execute, Job, JobState, JobTable};
use crate::lock_clean;
use crate::proto::{Request, Response};
use crate::queue::{JobQueue, PushError};
use crate::spec::JobSpec;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path to listen on (removed and re-created).
    pub socket: PathBuf,
    /// Worker threads executing jobs; the daemon spawns at least one.
    pub workers: usize,
    /// Bound on queued (not yet running) jobs; past it, submits get a
    /// typed `busy` rejection.
    pub queue_depth: usize,
    /// Checkpoint spool directory. `None` disables durable jobs: a
    /// killed daemon restarts cold instead of resuming.
    pub spool: Option<PathBuf>,
    /// Per-tenant failed-job budget: once a tenant accumulates this
    /// many failed jobs, further submits are rejected (`tenant-budget`).
    pub tenant_budget: Option<u64>,
    /// Where to write the serve run manifest at shutdown.
    pub metrics_out: Option<PathBuf>,
}

impl ServeConfig {
    /// A config with the CLI defaults for everything but the socket.
    pub fn new(socket: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            workers: 2,
            queue_depth: 8,
            spool: None,
            tenant_budget: None,
            metrics_out: None,
        }
    }
}

/// What the daemon did over its lifetime, reported by [`Daemon::join`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs admitted (queued or answered from the whole-result cache).
    pub jobs_admitted: u64,
    /// Jobs completed successfully (cache hits included).
    pub jobs_completed: u64,
    /// Jobs that ended `failed`.
    pub jobs_failed: u64,
    /// Jobs that ended `cancelled` (client cancels and shutdown drain).
    pub jobs_drained: u64,
    /// Whole-result cache hits.
    pub result_cache_hits: u64,
}

struct DaemonInner {
    cfg: ServeConfig,
    queue: JobQueue,
    table: JobTable,
    caches: ServeCaches,
    token: CancelToken,
    rec: Recorder,
    /// Failed-job counts per tenant, for the admission budget.
    tenants: Mutex<HashMap<String, u64>>,
    /// Connection handlers alive, each holding a [`ConnectionSlot`].
    connections: AtomicUsize,
}

impl DaemonInner {
    fn tenant_over_budget(&self, tenant: &str) -> bool {
        match self.cfg.tenant_budget {
            Some(budget) => {
                let t = lock_clean(&self.tenants);
                t.get(tenant).copied().unwrap_or(0) >= budget
            }
            None => false,
        }
    }

    fn bill_tenant_failure(&self, tenant: &str) {
        let mut t = lock_clean(&self.tenants);
        *t.entry(tenant.to_owned()).or_insert(0) += 1;
    }

    fn shutdown(&self) {
        self.token.cancel(CancelReason::User);
        self.queue.close();
    }
}

/// A running daemon. Dropping it does *not* stop it; call
/// [`Daemon::shutdown`] + [`Daemon::join`] (or send the `shutdown` op).
pub struct Daemon {
    inner: Arc<DaemonInner>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    started_unix_ms: u64,
    started: std::time::Instant,
}

impl Daemon {
    /// Binds the socket, starts the accept loop and the worker pool.
    ///
    /// # Errors
    ///
    /// I/O errors binding the socket or creating the spool directory.
    pub fn start(mut cfg: ServeConfig) -> std::io::Result<Daemon> {
        // What runs is what the log line and the manifest report.
        cfg.workers = cfg.workers.max(1);
        if let Some(spool) = &cfg.spool {
            std::fs::create_dir_all(spool)?;
        }
        // A stale socket file from a killed daemon blocks bind; the
        // kill/resume flow depends on replacing it.
        if cfg.socket.exists() {
            std::fs::remove_file(&cfg.socket)?;
        }
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;

        let inner = Arc::new(DaemonInner {
            queue: JobQueue::new(cfg.queue_depth),
            table: JobTable::new(),
            caches: ServeCaches::default(),
            token: CancelToken::new(),
            rec: Recorder::enabled(),
            tenants: Mutex::new(HashMap::new()),
            connections: AtomicUsize::new(0),
            cfg,
        });

        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::spawn(move || accept_loop(listener, &accept_inner));

        let mut workers = Vec::new();
        for _ in 0..inner.cfg.workers {
            let w = Arc::clone(&inner);
            workers.push(std::thread::spawn(move || worker_loop(&w)));
        }

        Ok(Daemon {
            inner,
            accept: Some(accept),
            workers,
            started_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
                .unwrap_or(0),
            started: std::time::Instant::now(),
        })
    }

    /// The daemon cancellation token (parent of every job token).
    /// Cancel it from a signal handler to drain and exit.
    pub fn token(&self) -> &CancelToken {
        &self.inner.token
    }

    /// The number of worker threads the daemon spawned.
    pub fn workers(&self) -> usize {
        self.inner.cfg.workers
    }

    /// The socket path the daemon is listening on.
    pub fn socket(&self) -> &Path {
        &self.inner.cfg.socket
    }

    /// Initiates a graceful drain (idempotent): stop admitting, cancel
    /// the job tokens so durable runs flush their checkpoints, close
    /// the queue.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }

    /// Waits for the accept loop and workers to finish, removes the
    /// socket, writes the serve manifest (when configured), and returns
    /// the lifetime summary. Blocks until someone triggers shutdown.
    pub fn join(mut self) -> std::io::Result<ServeSummary> {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.inner.cfg.socket);

        let snap = self.inner.rec.snapshot();
        let summary = ServeSummary {
            jobs_admitted: snap.counter(Counter::ServeJobsSubmitted),
            jobs_completed: snap.counter(Counter::ServeJobsCompleted),
            jobs_failed: snap.counter(Counter::ServeJobsFailed),
            jobs_drained: snap.counter(Counter::ServeJobsCancelled),
            result_cache_hits: snap.counter(Counter::ServeResultCacheHits),
        };
        if let Some(path) = &self.inner.cfg.metrics_out {
            let digest = pulsar_obs::config_digest(&format!(
                "serve workers={} queue_depth={}",
                self.inner.cfg.workers, self.inner.cfg.queue_depth
            ));
            let mut manifest = RunManifest::new("serve", digest);
            manifest.threads = Some(self.inner.cfg.workers);
            manifest.serve = Some(ServeManifest {
                workers: self.inner.cfg.workers as u64,
                queue_depth: self.inner.cfg.queue_depth as u64,
                jobs_admitted: summary.jobs_admitted,
                jobs_drained: summary.jobs_drained,
                tenant_budget: self.inner.cfg.tenant_budget,
            });
            manifest.started_unix_ms = self.started_unix_ms;
            manifest.wall_ms =
                u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
            manifest.events = self.inner.rec.event_count();
            manifest.metrics = snap;
            let mut doc = manifest.render_json();
            doc.push('\n');
            std::fs::write(path, doc)?;
        }
        Ok(summary)
    }
}

/// Most connections the daemon serves at once. One past it is answered
/// with a single `busy` error line and closed, so clients holding idle
/// connections cannot pile up daemon threads.
pub const MAX_CONNECTIONS: usize = 64;

fn accept_loop(listener: UnixListener, inner: &Arc<DaemonInner>) {
    loop {
        match listener.accept() {
            Ok((stream, _addr)) => admit(stream, inner),
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
        if inner.token.is_cancelled() {
            // A bare token cancel (e.g. a SIGINT bridge tripping
            // `Daemon::token`) must also close the queue, or the workers
            // would block in `pop` forever.
            inner.queue.close();
            return;
        }
    }
}

/// Starts a handler for `stream` in one of the [`MAX_CONNECTIONS`]
/// slots, or answers `busy` and closes it when all are held.
fn admit(mut stream: UnixStream, inner: &Arc<DaemonInner>) {
    // ordering: Relaxed — the count only gates admission and no data
    // rides on it; each RMW is atomic, so a slot is never lost or
    // counted twice.
    let held = inner.connections.fetch_add(1, Ordering::Relaxed);
    let slot = ConnectionSlot(Arc::clone(inner));
    if held >= MAX_CONNECTIONS {
        let busy = Response::Error {
            kind: "busy".to_owned(),
            message: format!("connection limit reached ({MAX_CONNECTIONS} open)"),
        };
        write_line(&mut stream, &busy);
        return;
    }
    // spawn: detached by design — the handler lives as long as its client
    // connection; shutdown closes the listener and pending handlers see
    // queue/table errors and return. Its slot goes back when it does.
    std::thread::spawn(move || handle_connection(stream, &slot.0));
}

/// One held connection slot, given back on drop — also when its handler
/// unwinds.
struct ConnectionSlot(Arc<DaemonInner>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        // ordering: Relaxed — paired with `admit`'s RMW; see there.
        self.0.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

fn worker_loop(inner: &Arc<DaemonInner>) {
    while let Some(id) = inner.queue.pop() {
        let Some(job) = inner.table.get(id) else {
            continue;
        };
        if !job.begin_running() {
            // Cancelled while queued: a client cancel already settled
            // (and counted) it; a shutdown drain is settled here.
            job.cancel_refused(|| inner.rec.add(Counter::ServeJobsCancelled, 1));
            continue;
        }
        let state = execute(&job, &inner.caches, inner.cfg.spool.as_deref());
        settle(inner, &job, state);
    }
}

/// Bills tenant failures, folds the job's counters into the daemon
/// recorder, then installs the terminal state. Accounting lands
/// *before* `finish` wakes any `wait`/`stream` clients, so a stats
/// request issued right after a wait returns sees the job's work.
fn settle(inner: &DaemonInner, job: &Job, state: JobState) {
    match &state {
        JobState::Done { .. } => inner.rec.add(Counter::ServeJobsCompleted, 1),
        JobState::Failed { .. } => {
            inner.rec.add(Counter::ServeJobsFailed, 1);
            inner.bill_tenant_failure(&job.tenant);
        }
        _ => inner.rec.add(Counter::ServeJobsCancelled, 1),
    }
    let snap = job.rec.snapshot();
    for c in Counter::ALL {
        let n = snap.counter(c);
        if n > 0 {
            inner.rec.add(c, n);
        }
    }
    job.finish(state);
}

/// Longest request line a connection handler reads, in bytes. It is far
/// above any inline ISCAS-85 netlist (c7552, the largest, is well under
/// 1 MB of text) and bounds what one client can make the daemon allocate.
pub const MAX_REQUEST_LINE: usize = 4 << 20;

fn handle_connection(stream: UnixStream, inner: &Arc<DaemonInner>) {
    let Ok(reader_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(reader_half);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // The line keeps its newline, which the JSON parser skips as
        // whitespace.
        let limit = MAX_REQUEST_LINE as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) if n == limit as usize && buf.last() != Some(&b'\n') => {
                // The rest of the line stays unread, so the connection
                // cannot go on: answer, then close it.
                let oversize = Response::Error {
                    kind: "malformed".to_owned(),
                    message: format!("request line longer than {MAX_REQUEST_LINE} bytes"),
                };
                write_line(&mut writer, &oversize);
                return;
            }
            Ok(_) => {}
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            return;
        };
        if line.trim().is_empty() {
            continue;
        }
        let reply_ok = match Request::parse(line) {
            Ok(req) => respond(&req, inner, &mut writer),
            Err(e) => write_line(
                &mut writer,
                &Response::Error {
                    kind: e.kind.to_owned(),
                    message: e.message,
                },
            ),
        };
        if !reply_ok {
            return;
        }
    }
}

/// Handles one request; returns false when the connection is dead.
fn respond(req: &Request, inner: &Arc<DaemonInner>, w: &mut UnixStream) -> bool {
    match req {
        Request::Submit {
            spec,
            tenant,
            deadline_ms,
            failure_budget,
        } => {
            let resp = submit(
                inner,
                spec,
                tenant.as_deref(),
                *deadline_ms,
                *failure_budget,
            );
            write_line(w, &resp)
        }
        Request::Status { job } => with_job(inner, *job, w, |job, w| {
            write_line(w, &outcome_response(&job.outcome()))
        }),
        Request::Wait { job } => with_job(inner, *job, w, |job, w| {
            write_line(w, &outcome_response(&job.wait_terminal()))
        }),
        Request::Cancel { job } => with_job(inner, *job, w, |job, w| {
            job.cancel(|| inner.rec.add(Counter::ServeJobsCancelled, 1));
            write_line(w, &outcome_response(&job.outcome()))
        }),
        Request::Stream { job } => with_job(inner, *job, w, |job, w| stream_job(&job, w)),
        Request::Stats => write_line(
            w,
            &Response::Stats {
                payload: stats_payload(inner),
            },
        ),
        Request::Shutdown => {
            let ok = write_line(w, &Response::Bye);
            inner.shutdown();
            ok
        }
    }
}

fn with_job(
    inner: &Arc<DaemonInner>,
    id: u64,
    w: &mut UnixStream,
    f: impl FnOnce(Arc<Job>, &mut UnixStream) -> bool,
) -> bool {
    match inner.table.get(id) {
        Some(job) => f(job, w),
        None => write_line(
            w,
            &Response::Error {
                kind: "unknown-job".to_owned(),
                message: format!("no job {id}"),
            },
        ),
    }
}

fn submit(
    inner: &Arc<DaemonInner>,
    spec: &JobSpec,
    tenant: Option<&str>,
    deadline_ms: Option<u64>,
    failure_budget: Option<f64>,
) -> Response {
    if inner.token.is_cancelled() {
        return Response::Error {
            kind: "shutdown".to_owned(),
            message: "daemon is draining".to_owned(),
        };
    }
    let tenant = tenant.unwrap_or("anonymous");
    if inner.tenant_over_budget(tenant) {
        inner.rec.add(Counter::ServeTenantRejections, 1);
        return Response::Error {
            kind: "tenant-budget".to_owned(),
            message: format!("tenant `{tenant}` is over its failed-job budget"),
        };
    }
    let digest = spec.digest();

    // Whole-result fast path: an identical digest that already completed
    // is answered inline — no queue slot, no worker, zero solves.
    if let Some(hit) = inner.caches.result.lookup(digest) {
        let job = inner
            .table
            .create(spec.clone(), tenant.to_owned(), None, None, &inner.token);
        job.begin_running();
        job.finish(JobState::Done {
            text: hit.text,
            cached: true,
        });
        inner.rec.add(Counter::ServeJobsSubmitted, 1);
        inner.rec.add(Counter::ServeResultCacheHits, 1);
        inner.rec.add(Counter::ServeJobsCompleted, 1);
        return Response::Accepted {
            job: job.id,
            digest,
            cached: true,
            state: "done".to_owned(),
        };
    }

    let job = inner.table.create(
        spec.clone(),
        tenant.to_owned(),
        deadline_ms.map(Duration::from_millis),
        failure_budget,
        &inner.token,
    );
    match inner.queue.push(job.id) {
        Ok(()) => {
            inner.rec.add(Counter::ServeJobsSubmitted, 1);
            Response::Accepted {
                job: job.id,
                digest,
                cached: false,
                state: "queued".to_owned(),
            }
        }
        Err(e) => {
            job.finish(JobState::Cancelled {
                reason: "rejected".to_owned(),
            });
            let (kind, message) = match e {
                PushError::Busy => {
                    inner.rec.add(Counter::ServeBusyRejections, 1);
                    (
                        "busy",
                        format!("queue full (depth {})", inner.cfg.queue_depth),
                    )
                }
                PushError::Closed => ("shutdown", "daemon is draining".to_owned()),
            };
            Response::Error {
                kind: kind.to_owned(),
                message,
            }
        }
    }
}

fn outcome_response(o: &crate::job::JobOutcome) -> Response {
    Response::Status {
        job: o.job,
        state: o.state.clone(),
        result: o.result.clone(),
        error: o.error.clone(),
    }
}

/// Forwards journal events as they land, then the terminal marker.
/// Polls the job recorder (~10 ms); the job's own threads never block
/// on a slow stream consumer.
fn stream_job(job: &Job, w: &mut UnixStream) -> bool {
    let mut sent = 0usize;
    loop {
        let events = job.rec.events();
        for e in &events[sent.min(events.len())..] {
            if !write_line(
                w,
                &Response::Event {
                    payload: e.render_jsonl(),
                },
            ) {
                return false;
            }
        }
        sent = events.len();
        let o = job.outcome();
        if o.terminal && sent == job.rec.event_count() {
            return write_line(
                w,
                &Response::StreamEnd {
                    job: o.job,
                    state: o.state,
                },
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn stats_payload(inner: &DaemonInner) -> String {
    use std::fmt::Write as _;
    let snap = inner.rec.snapshot();
    let mut out = String::from("{\"counters\":{");
    let mut first = true;
    for c in Counter::ALL {
        let n = snap.counter(c);
        if n > 0 {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{n}", c.name());
        }
    }
    let _ = write!(
        out,
        "}},\"queue\":{},\"jobs\":{},\"caches\":{{\"result\":{},\"calib\":{}}}}}",
        inner.queue.len(),
        inner.table.len(),
        inner.caches.result.len(),
        inner.caches.calib.len()
    );
    out
}

fn write_line(w: &mut UnixStream, resp: &Response) -> bool {
    let mut line = resp.render();
    line.push('\n');
    w.write_all(line.as_bytes()).is_ok()
}
