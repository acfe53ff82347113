//! `serve-mixed`: the `tpi-serve` binary under a closed-loop client.
//!
//! The requests are the grid shapes of `tpi-loadgen`'s request mix, asked
//! at paper scale: multi-kernel × multi-scheme grids, some with
//! non-default `opt_levels`, `procs` or `line_words`. The server runs with
//! `--workers` = cores, a fresh `--cache-dir`, and a `--memory-cells`
//! bound smaller than the number of distinct cells. The run has three
//! phases: cold (every distinct cell computed once and written to disk,
//! with a seeded half of the requests sent twice at once, so the copies
//! join the computation in flight), restart (the server stopped and
//! started on the same directory), and warm (a seeded, skewed request
//! stream served from the memory LRU and the disk tier). One client
//! process drives it closed-loop over keep-alive connections: two in the
//! cold phase, one per core in the warm phase.
//!
//! The client is the benchmark's own: one write per request, TCP_NODELAY,
//! keep-alive, no retries. Every failure (non-2xx, timeout, transport
//! error, or a body that differs from a fresh serial `Runner`'s) counts.

use crate::pipeline::probe_against;
use crate::util::{median, peak_rss_mb, quantile, ratio, Rng};
use crate::{Ctx, Outcome};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use tpi::{ExperimentConfig, Runner};
use tpi_compiler::OptLevel;
use tpi_serve::json::Json;
use tpi_serve::metrics::Metrics;
use tpi_serve::wire::render_cell;
use tpi_serve::{CellKey, DiskCache};
use tpi_sim::SimResult;
use tpi_workloads::{Kernel, Scale};

/// Completed cells the server may keep in memory; smaller than the 16
/// distinct cells, so the warm phase reads the disk tier too.
const MEMORY_CELLS: usize = 8;
/// Server starts per phase; set-up reports the median, and so does the
/// cold phase, which runs after every cold start.
const STARTS: usize = 9;
/// Warm requests per second of `--seconds`.
const WARM_PER_SECOND: u64 = 40;
/// Zipf exponent of warm-phase request popularity. An assumption: the
/// repository records no popularity distribution (`tpi-loadgen` cycles
/// its templates evenly), so the skew is unverified.
const ZIPF_S: f64 = 1.1;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One request shape of `tpi_serve::loadgen::templates()`, copied as data
/// so a change to the load generator cannot change this workload. Empty
/// axes take the server's documented defaults (the paper machine).
struct Template {
    kernels: &'static [Kernel],
    schemes: &'static [&'static str],
    opt_levels: &'static [(OptLevel, &'static str)],
    procs: &'static [u32],
    line_words: Option<u32>,
}

const TEMPLATES: [Template; 6] = [
    Template {
        kernels: &[Kernel::Flo52],
        schemes: &["TPI", "HW"],
        opt_levels: &[],
        procs: &[],
        line_words: None,
    },
    Template {
        kernels: &[Kernel::Ocean],
        schemes: &["TPI"],
        opt_levels: &[(OptLevel::Naive, "naive"), (OptLevel::Full, "full")],
        procs: &[],
        line_words: None,
    },
    Template {
        kernels: &[Kernel::Trfd, Kernel::Qcd2],
        schemes: &["SC", "TPI"],
        opt_levels: &[],
        procs: &[],
        line_words: None,
    },
    Template {
        kernels: &[Kernel::Spec77],
        schemes: &["BASE", "TPI"],
        opt_levels: &[],
        procs: &[8, 16],
        line_words: None,
    },
    Template {
        kernels: &[Kernel::Arc2d],
        schemes: &["TPI", "HW"],
        opt_levels: &[],
        procs: &[],
        line_words: Some(8),
    },
    Template {
        kernels: &[Kernel::Flo52],
        schemes: &["tardis", "hyb"],
        opt_levels: &[],
        procs: &[],
        line_words: None,
    },
];

impl Template {
    /// The request body, at paper scale.
    fn body(&self) -> String {
        let list = |items: Vec<String>| items.join(",");
        let mut body = format!(
            "{{\"kernels\":[{}],\"scale\":\"paper\",\"schemes\":[{}]",
            list(
                self.kernels
                    .iter()
                    .map(|k| format!("\"{}\"", k.name()))
                    .collect()
            ),
            list(self.schemes.iter().map(|s| format!("\"{s}\"")).collect()),
        );
        if !self.opt_levels.is_empty() {
            let names = self.opt_levels.iter().map(|(_, n)| format!("\"{n}\""));
            body.push_str(&format!(",\"opt_levels\":[{}]", list(names.collect())));
        }
        if !self.procs.is_empty() {
            let procs = self.procs.iter().map(u32::to_string);
            body.push_str(&format!(",\"procs\":[{}]", list(procs.collect())));
        }
        if let Some(words) = self.line_words {
            body.push_str(&format!(",\"line_words\":{words}"));
        }
        body.push('}');
        body
    }

    /// The request's cells in response order: kernels, then schemes, then
    /// optimization levels, then processor counts.
    fn cells(&self) -> Vec<CellKey> {
        let paper = ExperimentConfig::paper();
        let opt_levels: Vec<OptLevel> = if self.opt_levels.is_empty() {
            vec![paper.opt_level]
        } else {
            self.opt_levels.iter().map(|(l, _)| *l).collect()
        };
        let procs = if self.procs.is_empty() {
            vec![paper.procs]
        } else {
            self.procs.to_vec()
        };
        let mut cells = Vec::new();
        for &kernel in self.kernels {
            for &name in self.schemes {
                for &opt_level in &opt_levels {
                    for &procs in &procs {
                        cells.push(CellKey {
                            kernel,
                            scale: Scale::Paper,
                            scheme: crate::pipeline::scheme(name),
                            opt_level,
                            procs,
                            line_words: self.line_words.unwrap_or(paper.line_words),
                            cache_bytes: paper.cache_bytes,
                            tag_bits: paper.tag_bits,
                            seed: paper.seed,
                        });
                    }
                }
            }
        }
        cells
    }
}

fn cell_name(key: &CellKey) -> String {
    format!(
        "{}/{}/{:?}/p{}/lw{}",
        key.kernel.name(),
        key.scheme.as_str(),
        key.opt_level,
        key.procs,
        key.line_words
    )
}

/// Builds the server binary from the checkout (a no-op when up to date).
fn server_binary() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "tpi-serve",
            "--bin",
            "tpi-serve",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building tpi-serve failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok(target.join("release").join("tpi-serve"))
}

/// A running `tpi-serve` process.
struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Option<std::thread::JoinHandle<String>>,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns the server and waits for its ready line; returns it with the
    /// time from spawn to ready.
    fn start(bin: &Path, cache_dir: &Path, workers: usize) -> Result<(Server, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .args(["--memory-cells", &MEMORY_CELLS.to_string()])
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.split("listening on http://").nth(1) {
                    let _ = tx.send(addr.trim().to_owned());
                }
            }
        });
        let stderr = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = BufReader::new(stderr).read_to_string(&mut text);
            text
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(stderr),
            stdout: Some(stdout),
        };
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) => {
                let ready = started.elapsed().as_secs_f64();
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("bad ready line {addr:?}: {e}"))?;
                Ok((server, ready))
            }
            Err(_) => {
                let text = server.kill();
                Err(format!("tpi-serve printed no ready line: {text}"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the process and collects its stderr.
    fn kill(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_output()
    }

    fn join_output(&mut self) -> String {
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        self.stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }

    /// Graceful shutdown: `POST /admin/shutdown`, then wait for exit.
    /// Returns the server's stderr.
    fn stop(mut self) -> Result<String, String> {
        let mut client = Client::new(self.addr);
        let posted = client.call("POST", "/admin/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let text = self.join_output();
                    return if status.success() && posted.is_ok() {
                        Ok(text)
                    } else {
                        Err(format!("tpi-serve exited with {status}: {text}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let text = self.kill();
                    return Err(format!("tpi-serve did not drain in time: {text}"));
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            self.kill();
        }
    }
}

/// The benchmark's HTTP/1.1 client: one keep-alive connection, each
/// request sent in a single write with TCP_NODELAY, no retries.
struct Client {
    addr: SocketAddr,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    fn call(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
        let r = self.send(method, path, body).and_then(|()| self.recv());
        if r.is_err() {
            self.conn = None;
        }
        r
    }

    /// Sends one request in a single write.
    fn send(&mut self, method: &str, path: &str, body: &str) -> Result<(), String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(10))
                .map_err(|e| format!("connect: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("nodelay: {e}"))?;
            stream
                .set_read_timeout(Some(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
            stream
                .set_write_timeout(Some(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
            let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
            self.conn = Some((reader, stream));
        }
        let (_, stream) = self.conn.as_mut().expect("connected above");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))
    }

    /// Reads the response to the request sent last.
    fn recv(&mut self) -> Result<(u16, Vec<u8>), String> {
        let (reader, _) = self.conn.as_mut().ok_or("no request in flight")?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let (name, value) = header.split_once(':').unwrap_or((header, ""));
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .parse()
                    .map_err(|_| format!("bad content-length {value:?}"))?;
                if length > 1 << 24 {
                    return Err(format!("content-length {length} too large"));
                }
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
        let mut body = vec![0; length];
        reader
            .read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        if close {
            self.conn = None;
        }
        Ok((status, body))
    }
}

/// One completed request.
struct Reply {
    template: usize,
    result: Result<(u16, Vec<u8>), String>,
    latency_s: f64,
}

/// Cold phase: sends each template once, in `order`, on one connection.
/// A `doubled` template is also sent on a second connection; both copies
/// are written before either reply is read, so the second copy plans its
/// cells while the first copy's are in flight and joins them.
fn drive_cold(
    ctx: &Ctx,
    addr: SocketAddr,
    bodies: &[String],
    order: &[usize],
    doubled: &[bool],
) -> Vec<Reply> {
    let mut clients = [Client::new(addr), Client::new(addr)];
    let mut replies = Vec::new();
    ctx.tracer.span(
        "bench.phase",
        None,
        || "cold".to_owned(),
        |root| {
            for (i, &t) in order.iter().enumerate() {
                let copies = if doubled[t] { 2 } else { 1 };
                let started = Instant::now();
                ctx.tracer.span(
                    "serve.request",
                    root,
                    || format!("cold#{i}x{copies}"),
                    |_| {
                        let sent: Vec<Result<(), String>> = clients[..copies]
                            .iter_mut()
                            .map(|c| c.send("POST", "/v1/experiments", &bodies[t]))
                            .collect();
                        for (client, sent) in clients.iter_mut().zip(sent) {
                            let result = sent.and_then(|()| client.recv());
                            if result.is_err() {
                                client.conn = None;
                            }
                            replies.push(Reply {
                                template: t,
                                result,
                                latency_s: started.elapsed().as_secs_f64(),
                            });
                        }
                    },
                );
            }
        },
    );
    replies
}

/// Sends `stream` (indices into `bodies`) closed-loop over `conns`
/// connections; results come back in stream order.
fn drive(
    ctx: &Ctx,
    addr: SocketAddr,
    conns: usize,
    phase: &'static str,
    bodies: &[String],
    stream: &[usize],
    inject: bool,
) -> Vec<Reply> {
    let next = AtomicUsize::new(0);
    let replies: Mutex<Vec<(usize, Reply)>> = Mutex::new(Vec::with_capacity(stream.len()));
    ctx.tracer.span(
        "bench.phase",
        None,
        || phase.to_owned(),
        |root| {
            std::thread::scope(|scope| {
                for _ in 0..conns {
                    scope.spawn(|| {
                        let mut client = Client::new(addr);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&template) = stream.get(i) else {
                                break;
                            };
                            let started = Instant::now();
                            let result = ctx.tracer.span(
                                "serve.request",
                                root,
                                || format!("{phase}#{i}"),
                                |_| {
                                    let r =
                                        client.call("POST", "/v1/experiments", &bodies[template]);
                                    if inject {
                                        ctx.slowdown.after(started);
                                    }
                                    r
                                },
                            );
                            let latency_s = started.elapsed().as_secs_f64();
                            replies
                                .lock()
                                .expect("reply list poisoned by a panicking client")
                                .push((
                                    i,
                                    Reply {
                                        template,
                                        result,
                                        latency_s,
                                    },
                                ));
                        }
                    });
                }
            });
        },
    );
    let mut replies = replies
        .into_inner()
        .expect("reply list poisoned by a panicking client");
    replies.sort_by_key(|(i, _)| *i);
    replies.into_iter().map(|(_, r)| r).collect()
}

/// A `/metrics` scrape: series name (with labels) to value.
struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    fn take(addr: SocketAddr) -> Result<Scrape, String> {
        let (status, body) = Client::new(addr).call("GET", "/metrics", "")?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        let text = String::from_utf8_lossy(&body);
        Ok(Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (k, v) = l.rsplit_once(' ')?;
                    Some((k.to_owned(), v.parse().ok()?))
                })
                .collect(),
        ))
    }

    fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    fn delta(&self, before: &Scrape, series: &str) -> f64 {
        self.get(series) - before.get(series)
    }
}

const DURATION_SUM: &str = "tpi_serve_request_duration_seconds_sum{endpoint=\"experiments\",}";
const DURATION_COUNT: &str = "tpi_serve_request_duration_seconds_count{endpoint=\"experiments\",}";
const PREPARE_WALL: &str = "tpi_prof_stage_wall_seconds{stage=\"prepare\"}";
const SIMULATE_WALL: &str = "tpi_prof_stage_wall_seconds{stage=\"simulate\"}";
const SIM_EVENTS: &str = "tpi_prof_events_total{event=\"sim_events\"}";

/// Reads `N` out of the server's "disk cache recovered: N scanned" line.
fn scanned_from(stderr: &str) -> Option<u64> {
    let rest = stderr.split("disk cache recovered: ").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

pub fn serve_mixed(ctx: &Ctx) -> Result<Outcome, String> {
    let bin = server_binary()?;
    let run_dir = ctx.state.join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = run(ctx, &bin, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn run(ctx: &Ctx, bin: &Path, run_dir: &Path) -> Result<Outcome, String> {
    let mut rng = Rng::new(ctx.seed);
    let bodies: Vec<String> = TEMPLATES.iter().map(Template::body).collect();
    let shapes: Vec<Vec<CellKey>> = TEMPLATES.iter().map(Template::cells).collect();
    let mut distinct: Vec<CellKey> = Vec::new();
    for key in shapes.iter().flatten() {
        if !distinct.contains(key) {
            distinct.push(*key);
        }
    }
    let conns = ctx.threads;
    let mut out = Outcome::default();

    // Cold phase: every template once, in the load generator's order, on
    // one connection, and a seeded half of them sent twice at once. The
    // order stays fixed: the server keeps every trace it builds, so the
    // order decides how much is held when the largest cells run, and a
    // seeded order moved the server's peak memory by 10% between seeds.
    let cold_order: Vec<usize> = (0..TEMPLATES.len()).collect();
    let mut doubled = vec![false; TEMPLATES.len()];
    let mut pick: Vec<usize> = (0..TEMPLATES.len()).collect();
    rng.shuffle(&mut pick);
    for &t in &pick[..TEMPLATES.len() / 2] {
        doubled[t] = true;
    }
    // Every doubled request's second copy joins the first copy's cells.
    let want_joined: usize = (0..TEMPLATES.len())
        .filter(|&t| doubled[t])
        .map(|t| shapes[t].len())
        .sum();

    // Cold starts, each on a fresh directory and each followed by the cold
    // phase; the last directory is the one the restarts recover.
    let mut cold_starts = Vec::new();
    let mut cold_times = Vec::new();
    let mut cold_rates = Vec::new();
    let mut cold = Vec::new();
    let mut rss_cold: f64 = 0.0;
    let mut last_round = None;
    let mut cache_dir = PathBuf::new();
    for i in 0..STARTS {
        cache_dir = run_dir.join(format!("cold{i}"));
        let (server, ready) = Server::start(bin, &cache_dir, ctx.threads)?;
        cold_starts.push(ready);
        let before = Scrape::take(server.addr)?;
        let started = Instant::now();
        let replies = drive_cold(ctx, server.addr, &bodies, &cold_order, &doubled);
        let secs = started.elapsed().as_secs_f64();
        let after = Scrape::take(server.addr)?;
        rss_cold = rss_cold.max(peak_rss_mb(Some(server.pid())).unwrap_or(0.0));
        server.stop()?;
        cold_times.push(secs);
        cold_rates.push(after.delta(&before, SIM_EVENTS) / secs);
        let joined = after.delta(&before, "tpi_serve_cells_joined_total") as usize;
        if joined != want_joined {
            out.bugs.push(format!(
                "cold round {i}: {joined} cells joined in flight, \
                 {want_joined} sent twice at once"
            ));
        }
        cold.extend(replies);
        last_round = Some((before, after));
    }
    let (before_cold, after_cold) = last_round.expect("STARTS > 0");
    let cold_s = median(&cold_times);

    // Restart on the same directory; the recovery scan precedes the ready line.
    let mut warm_starts = Vec::new();
    let mut server = None;
    let mut restart_stderr = String::new();
    for i in 0..STARTS {
        let (s, ready) = Server::start(bin, &cache_dir, ctx.threads)?;
        warm_starts.push(ready);
        if i + 1 < STARTS {
            restart_stderr = s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("STARTS > 0");

    // Warm phase: a seeded stream with Zipf popularity over a seeded
    // ranking of the templates.
    let mut ranking: Vec<usize> = (0..TEMPLATES.len()).collect();
    rng.shuffle(&mut ranking);
    let weights: Vec<f64> = (0..TEMPLATES.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let warm_n = (WARM_PER_SECOND * ctx.seconds) as usize;
    let warm_stream: Vec<usize> = (0..warm_n)
        .map(|_| {
            let mut u = rng.unit() * total;
            let mut rank = 0;
            while rank + 1 < weights.len() && u >= weights[rank] {
                u -= weights[rank];
                rank += 1;
            }
            ranking[rank]
        })
        .collect();
    let before_warm = Scrape::take(server.addr)?;
    let started = Instant::now();
    let warm = drive(ctx, server.addr, conns, "warm", &bodies, &warm_stream, true);
    let warm_s = started.elapsed().as_secs_f64();
    let after_warm = Scrape::take(server.addr)?;
    let rss_warm = peak_rss_mb(Some(server.pid())).unwrap_or(0.0);
    server.stop()?;

    // Reference bodies from a fresh serial Runner, after the timed phases.
    let runner = Runner::serial();
    let mut rendered = Vec::with_capacity(distinct.len());
    let mut reference = Vec::with_capacity(distinct.len());
    for key in &distinct {
        let config = key.config().map_err(|e| e.to_string())?;
        let result = runner
            .run_kernel(key.kernel, key.scale, &config)
            .map_err(|e| format!("{}: {e}", cell_name(key)))?;
        rendered.push(render_cell(key, &result));
        reference.push((key.kernel, key.scale, config, result.sim));
    }
    let expected: Vec<Vec<u8>> = shapes
        .iter()
        .map(|cells| {
            let items = cells
                .iter()
                .map(|key| {
                    rendered[distinct
                        .iter()
                        .position(|d| d == key)
                        .expect("collected above")]
                    .clone()
                })
                .collect();
            Json::obj([
                ("cells", Json::Arr(items)),
                ("count", Json::from(cells.len())),
            ])
            .render()
            .into_bytes()
        })
        .collect();
    for (phase, replies) in [("cold", &cold), ("warm", &warm)] {
        for (i, reply) in replies.iter().enumerate() {
            out.attempted += 1;
            let what = format!("{phase} request {i} ({})", bodies[reply.template]);
            match &reply.result {
                Ok((200, body)) if *body == expected[reply.template] => {}
                Ok((200, _)) => {
                    out.fail(format!("{what}: body differs from a fresh serial Runner's"))
                }
                Ok((status, _)) => out.fail(format!("{what}: status {status}")),
                Err(e) => out.fail(format!("{what}: {e}")),
            }
        }
    }

    // End-to-end metrics.
    let latencies: Vec<f64> = warm.iter().map(|r| r.latency_s * 1e3).collect();
    let warm_p50 = quantile(&latencies, 0.5);
    let warm_p90 = quantile(&latencies, 0.9);
    out.e2e.insert("wall_s", cold_s + warm_s);
    out.e2e
        .insert("setup_s", median(&cold_starts) + median(&warm_starts));
    out.e2e.insert("peak_rss_mb", rss_cold.max(rss_warm));
    out.e2e.insert("sim_events_per_s", median(&cold_rates));
    let warm_rate = warm_n as f64 / warm_s;
    out.extra = vec![
        ("cold_s", cold_s, "s"),
        ("warm_p50_ms", warm_p50, "ms"),
        ("warm_p90_ms", warm_p90, "ms"),
        ("warm_req_per_s", warm_rate, "1/s"),
        ("warm_samples", warm_n as f64, "count"),
    ];
    out.set("serve.cold_s", cold_s);
    out.set("serve.warm_p50_ms", warm_p50);
    out.set("serve.warm_p90_ms", warm_p90);
    out.set("serve.warm_req_per_s", warm_rate);
    out.set("serve.warm_samples", warm_n as f64);

    // Layer split from /metrics deltas: the server's own time per warm
    // request, and the rest of the client's time, which is transport.
    let server_ms = 1e3
        * ratio(
            after_warm.delta(&before_warm, DURATION_SUM),
            after_warm.delta(&before_warm, DURATION_COUNT),
        );
    let client_ms = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    out.set("serve.server_ms", server_ms);
    out.set("serve.transport_ms", client_ms - server_ms);
    out.set(
        "serve.compute_ms",
        1e3 * (after_cold.delta(&before_cold, PREPARE_WALL)
            + after_cold.delta(&before_cold, SIMULATE_WALL)),
    );
    let both = |series: &str| after_cold.get(series) + after_warm.get(series);
    // The last cold round and the warm phase, as the counters below.
    let cold_cells: usize = (0..TEMPLATES.len())
        .map(|t| shapes[t].len() * if doubled[t] { 2 } else { 1 })
        .sum();
    let requested =
        (cold_cells + warm.iter().map(|r| shapes[r.template].len()).sum::<usize>()) as u64;
    let computed = both("tpi_serve_cells_computed_total") as u64;
    let cached = both("tpi_serve_cells_cached_total") as u64;
    let joined = both("tpi_serve_cells_joined_total") as u64;
    let writes = both("tpi_disk_cache_writes_total") as u64;
    let warm_disk_hits = after_warm.delta(&before_warm, "tpi_disk_cache_hits_total");
    let warm_cached = after_warm.delta(&before_warm, "tpi_serve_cells_cached_total");
    out.set("serve.cells_requested", requested as f64);
    out.set("serve.cells_computed", computed as f64);
    out.set("serve.cells_cached", cached as f64);
    out.set("serve.cells_joined", joined as f64);
    out.set("serve.hit_ratio", ratio(cached as f64, requested as f64));
    out.set(
        "serve.memory_evictions",
        both("tpi_serve_memory_evictions_total"),
    );
    out.set(
        "serve.rejected",
        both("tpi_serve_rejected_queue_full_total") + both("tpi_serve_rejected_timeout_total"),
    );
    out.set("disk.writes", writes as f64);
    out.set("disk.hits", both("tpi_disk_cache_hits_total"));
    out.set("disk.hit_share", ratio(warm_disk_hits, warm_cached));
    let scanned = scanned_from(&restart_stderr).unwrap_or(0);
    out.set("disk.records_scanned", scanned as f64);
    for (name, value) in [
        ("serve.cells_requested", requested),
        ("serve.cells_computed", computed),
        ("serve.cells_cached", cached),
        ("serve.cells_joined", joined),
        ("disk.writes", writes),
    ] {
        out.exact.insert(name.into(), value);
    }
    // Runner inside the cold server, from its /metrics.
    let traces = after_cold.get("tpi_runner_traces_built_total");
    let trace_hits = after_cold.get("tpi_runner_trace_hits_total");
    let markings = after_cold.get("tpi_runner_markings_built_total");
    let marking_hits = after_cold.get("tpi_runner_marking_hits_total");
    out.set("runner.traces_built", traces);
    out.set(
        "runner.trace_hit_ratio",
        ratio(trace_hits, trace_hits + traces),
    );
    out.set(
        "runner.marking_hit_ratio",
        ratio(marking_hits, marking_hits + markings),
    );
    out.set(
        "runner.cells_simulated",
        after_cold.get("tpi_runner_cells_simulated_total"),
    );
    out.set(
        "runner.prepare_ms",
        1e3 * after_cold.delta(&before_cold, PREPARE_WALL),
    );

    if ctx.tracer.enabled() {
        // The disk tier's recovery scan, called directly on the directory
        // the server recovered from; it must find what the server found.
        let (_, report) = ctx
            .tracer
            .span(
                "disk.recovery",
                None,
                || "warm cache".to_owned(),
                |_| DiskCache::open(&cache_dir, None, Arc::new(Metrics::default())),
            )
            .map_err(|e| format!("{}: {e}", cache_dir.display()))?;
        if report.scanned as u64 != scanned || report.valid != distinct.len() {
            out.fail(format!(
                "direct recovery scan found {} records ({} valid); the server reported {scanned}",
                report.scanned, report.valid
            ));
        }
        // The layers under the server's Runner, called directly on the
        // same cells and checked against the reference.
        let cells: Vec<_> = reference.iter().map(|(k, s, c, _)| (*k, *s, *c)).collect();
        let sims: Vec<SimResult> = reference.into_iter().map(|(.., sim)| sim).collect();
        probe_against(ctx, &cells, &sims, &mut out)?;
    }
    Ok(out)
}
