//! Lock-free service metrics and their Prometheus text rendering.
//!
//! The registry is a fixed struct of atomics rather than a generic
//! string-keyed map: every series the service can emit is known at
//! compile time, render order is deterministic, and the hot path is a
//! handful of relaxed atomic increments.

use crate::fault::FaultSite;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tpi::{ProfileReport, RunnerStats};

/// The endpoints the router distinguishes (unknown paths fold into
/// [`Endpoint::Other`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/experiments`.
    Experiments,
    /// `GET /v1/kernels`.
    Kernels,
    /// `GET /v1/schemes`.
    Schemes,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `POST /admin/shutdown`.
    Shutdown,
    /// Anything else (404/405 traffic).
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 7] = [
        Endpoint::Experiments,
        Endpoint::Kernels,
        Endpoint::Schemes,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Shutdown,
        Endpoint::Other,
    ];

    fn index(self) -> usize {
        Endpoint::ALL
            .iter()
            .position(|&e| e == self)
            .expect("listed")
    }

    fn label(self) -> &'static str {
        match self {
            Endpoint::Experiments => "experiments",
            Endpoint::Kernels => "kernels",
            Endpoint::Schemes => "schemes",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }
}

/// Status codes the service emits (everything else folds into `other`).
const STATUSES: [u16; 9] = [200, 400, 404, 405, 408, 413, 500, 503, 504];

fn status_index(status: u16) -> usize {
    STATUSES
        .iter()
        .position(|&s| s == status)
        .unwrap_or(STATUSES.len())
}

fn status_label(index: usize) -> String {
    STATUSES
        .get(index)
        .map_or_else(|| "other".to_owned(), ToString::to_string)
}

/// Upper bounds of the latency histogram buckets, in seconds.
pub const LATENCY_BUCKETS: [f64; 12] = [
    0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 5.0,
];

/// A fixed-bucket latency histogram (counts + sum, Prometheus style).
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS.len()],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        for (i, &bound) in LATENCY_BUCKETS.iter().enumerate() {
            if secs <= bound {
                self.buckets[i].fetch_add(1, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn render(&self, name: &str, labels: &str, out: &mut String) {
        use std::fmt::Write;
        for (i, &bound) in LATENCY_BUCKETS.iter().enumerate() {
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}le=\"{bound}\"}} {}",
                self.buckets[i].load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}le=\"+Inf\"}} {}",
            self.count.load(Ordering::Relaxed)
        );
        #[allow(clippy::cast_precision_loss)]
        let sum = self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let _ = writeln!(out, "{name}_sum{{{labels}}} {sum}");
        let _ = writeln!(
            out,
            "{name}_count{{{labels}}} {}",
            self.count.load(Ordering::Relaxed)
        );
    }
}

/// Every counter and gauge the service exports.
#[derive(Default)]
pub struct Metrics {
    requests: [[AtomicU64; STATUSES.len() + 1]; Endpoint::ALL.len()],
    latency: [Histogram; Endpoint::ALL.len()],
    /// Cells answered straight from the completed-result cache.
    pub cells_cached: AtomicU64,
    /// Cells that joined an identical in-flight computation
    /// (single-flight fan-in).
    pub cells_joined: AtomicU64,
    /// Cells actually computed by a worker.
    pub cells_computed: AtomicU64,
    /// Requests rejected because the work queue was full.
    pub rejected_queue_full: AtomicU64,
    /// Requests that hit their deadline before every cell finished.
    pub rejected_timeout: AtomicU64,
    /// Requests rejected for malformed or invalid bodies.
    pub bad_requests: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Cells whose computation panicked (contained per cell; the cell's
    /// waiters saw a structured `cell_panicked` error).
    pub cell_panics: AtomicU64,
    /// Worker threads that died and were respawned by the pool's
    /// supervision.
    pub worker_restarts: AtomicU64,
    /// Faults injected, per [`FaultSite`] (always zero when the fault
    /// layer is disabled).
    pub faults_injected: [AtomicU64; FaultSite::COUNT],
    /// Cells served from a verified disk-cache record (warm restarts).
    pub disk_hits: AtomicU64,
    /// Records durably written to the disk cache.
    pub disk_writes: AtomicU64,
    /// Disk-cache records quarantined (torn or corrupted — at startup or
    /// on a failed runtime read). Quarantined records are never served.
    pub disk_quarantined: AtomicU64,
    /// Completed results evicted from the bounded in-memory LRU (the
    /// disk store, when configured, still holds them).
    pub memory_evictions: AtomicU64,
}

impl Metrics {
    /// Counts one injected fault at `site`.
    pub fn fault(&self, site: FaultSite) {
        self.faults_injected[site.index()].fetch_add(1, Ordering::Relaxed);
    }
    /// Records one finished request.
    pub fn record_request(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        self.requests[endpoint.index()][status_index(status)].fetch_add(1, Ordering::Relaxed);
        self.latency[endpoint.index()].observe(elapsed);
    }

    /// Total requests recorded for one endpoint (any status).
    #[must_use]
    pub fn requests_for(&self, endpoint: Endpoint) -> u64 {
        self.requests[endpoint.index()]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Renders the whole registry in Prometheus text exposition format.
    /// `runner` contributes the artifact-cache counters, `profile` the
    /// tpi-prof stage timings; the queue/worker gauges are sampled by the
    /// caller (they live in the pool).
    #[must_use]
    pub fn render(
        &self,
        runner: &RunnerStats,
        profile: &ProfileReport,
        queue_depth: usize,
        workers_busy: usize,
        workers_total: usize,
        uptime: Duration,
    ) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(4096);

        out.push_str("# HELP tpi_serve_requests_total Requests served, by endpoint and status.\n");
        out.push_str("# TYPE tpi_serve_requests_total counter\n");
        for endpoint in Endpoint::ALL {
            for si in 0..=STATUSES.len() {
                let n = self.requests[endpoint.index()][si].load(Ordering::Relaxed);
                if n > 0 {
                    let _ = writeln!(
                        out,
                        "tpi_serve_requests_total{{endpoint=\"{}\",status=\"{}\"}} {n}",
                        endpoint.label(),
                        status_label(si)
                    );
                }
            }
        }

        out.push_str(
            "# HELP tpi_serve_request_duration_seconds Request latency, by endpoint.\n\
             # TYPE tpi_serve_request_duration_seconds histogram\n",
        );
        for endpoint in Endpoint::ALL {
            if self.latency[endpoint.index()].count() == 0 {
                continue;
            }
            self.latency[endpoint.index()].render(
                "tpi_serve_request_duration_seconds",
                &format!("endpoint=\"{}\",", endpoint.label()),
                &mut out,
            );
        }

        let simple: [(&str, &str, u64); 13] = [
            (
                "tpi_serve_cells_cached_total",
                "Grid cells answered from the completed-result cache.",
                self.cells_cached.load(Ordering::Relaxed),
            ),
            (
                "tpi_serve_cells_joined_total",
                "Grid cells that joined an identical in-flight computation (single-flight).",
                self.cells_joined.load(Ordering::Relaxed),
            ),
            (
                "tpi_serve_cells_computed_total",
                "Grid cells computed by a worker.",
                self.cells_computed.load(Ordering::Relaxed),
            ),
            (
                "tpi_serve_rejected_queue_full_total",
                "Requests rejected with 503 because the work queue was full.",
                self.rejected_queue_full.load(Ordering::Relaxed),
            ),
            (
                "tpi_serve_rejected_timeout_total",
                "Requests that exceeded their deadline (504).",
                self.rejected_timeout.load(Ordering::Relaxed),
            ),
            (
                "tpi_serve_bad_requests_total",
                "Requests rejected with 400.",
                self.bad_requests.load(Ordering::Relaxed),
            ),
            (
                "tpi_serve_connections_total",
                "TCP connections accepted.",
                self.connections.load(Ordering::Relaxed),
            ),
            (
                "tpi_cell_panics_total",
                "Cell computations that panicked (contained; waiters saw a structured 500).",
                self.cell_panics.load(Ordering::Relaxed),
            ),
            (
                "tpi_worker_restarts_total",
                "Worker threads respawned by the pool's supervision.",
                self.worker_restarts.load(Ordering::Relaxed),
            ),
            (
                "tpi_disk_cache_hits_total",
                "Cells served from a verified disk-cache record.",
                self.disk_hits.load(Ordering::Relaxed),
            ),
            (
                "tpi_disk_cache_writes_total",
                "Records durably written to the disk cache.",
                self.disk_writes.load(Ordering::Relaxed),
            ),
            (
                "tpi_disk_cache_quarantined_total",
                "Disk-cache records quarantined instead of served (torn or corrupted).",
                self.disk_quarantined.load(Ordering::Relaxed),
            ),
            (
                "tpi_serve_memory_evictions_total",
                "Completed results evicted from the bounded in-memory LRU.",
                self.memory_evictions.load(Ordering::Relaxed),
            ),
        ];
        for (name, help, value) in simple {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}"
            );
        }

        out.push_str(
            "# HELP tpi_faults_injected_total Faults injected by the tpi-fault layer, by site.\n\
             # TYPE tpi_faults_injected_total counter\n",
        );
        for site in FaultSite::ALL {
            let n = self.faults_injected[site.index()].load(Ordering::Relaxed);
            if n > 0 {
                let _ = writeln!(
                    out,
                    "tpi_faults_injected_total{{site=\"{}\"}} {n}",
                    site.key()
                );
            }
        }

        let gauges: [(&str, &str, u64); 3] = [
            (
                "tpi_serve_queue_depth",
                "Cells waiting in the bounded work queue.",
                queue_depth as u64,
            ),
            (
                "tpi_serve_workers_busy",
                "Workers currently simulating a cell.",
                workers_busy as u64,
            ),
            (
                "tpi_serve_workers_total",
                "Size of the worker pool.",
                workers_total as u64,
            ),
        ];
        for (name, help, value) in gauges {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}"
            );
        }
        let _ = writeln!(
            out,
            "# HELP tpi_serve_uptime_seconds Seconds since the server started.\n\
             # TYPE tpi_serve_uptime_seconds gauge\n\
             tpi_serve_uptime_seconds {}",
            uptime.as_secs()
        );

        let runner_counters: [(&str, &str, u64); 9] = [
            (
                "tpi_runner_programs_built_total",
                "Programs built by the Runner (artifact-cache misses).",
                runner.programs_built,
            ),
            (
                "tpi_runner_program_hits_total",
                "Program artifact-cache hits.",
                runner.program_hits,
            ),
            (
                "tpi_runner_markings_built_total",
                "Marking passes run (artifact-cache misses).",
                runner.markings_built,
            ),
            (
                "tpi_runner_marking_hits_total",
                "Marking artifact-cache hits.",
                runner.marking_hits,
            ),
            (
                "tpi_runner_traces_built_total",
                "Traces interpreted (artifact-cache misses).",
                runner.traces_built,
            ),
            (
                "tpi_runner_trace_hits_total",
                "Trace artifact-cache hits.",
                runner.trace_hits,
            ),
            (
                "tpi_runner_cells_simulated_total",
                "Cells simulated by the Runner.",
                runner.cells_simulated,
            ),
            (
                "tpi_runner_cells_deduped_total",
                "Cells answered from the Runner's memo instead of simulated.",
                runner.cells_deduped,
            ),
            (
                "tpi_runner_memo_evictions_total",
                "Runner memo entries (cell results, traces) evicted to stay within its byte budget.",
                runner.memo_evictions,
            ),
        ];
        for (name, help, value) in runner_counters {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}"
            );
        }
        let _ = writeln!(
            out,
            "# HELP tpi_runner_memo_bytes Heap bytes the Runner's memo holds (cell results and traces).\n\
             # TYPE tpi_runner_memo_bytes gauge\n\
             tpi_runner_memo_bytes {}",
            runner.memo_bytes
        );

        let cache = runner.cache();
        out.push_str(
            "# HELP tpi_runner_cache_hit_ratio Fraction of Runner memo-store lookups answered \
             from the store, by stage.\n\
             # TYPE tpi_runner_cache_hit_ratio gauge\n",
        );
        let stages = [
            ("programs", cache.programs.hit_rate()),
            ("markings", cache.markings.hit_rate()),
            ("traces", cache.traces.hit_rate()),
            ("cells", cache.cells.hit_rate()),
            ("total", cache.total().hit_rate()),
        ];
        for (stage, ratio) in stages {
            let _ = writeln!(
                out,
                "tpi_runner_cache_hit_ratio{{stage=\"{stage}\"}} {ratio}"
            );
        }

        if !profile.stages.is_empty() {
            out.push_str(
                "# HELP tpi_prof_stage_wall_seconds Wall time attributed to each tpi-prof \
                 pipeline stage since startup.\n\
                 # TYPE tpi_prof_stage_wall_seconds gauge\n",
            );
            for stage in &profile.stages {
                #[allow(clippy::cast_precision_loss)]
                let secs = stage.nanos as f64 / 1e9;
                let _ = writeln!(
                    out,
                    "tpi_prof_stage_wall_seconds{{stage=\"{}\"}} {secs}",
                    stage.path
                );
            }
            out.push_str(
                "# HELP tpi_prof_stage_calls_total Times each tpi-prof pipeline stage ran.\n\
                 # TYPE tpi_prof_stage_calls_total counter\n",
            );
            for stage in &profile.stages {
                let _ = writeln!(
                    out,
                    "tpi_prof_stage_calls_total{{stage=\"{}\"}} {}",
                    stage.path, stage.calls
                );
            }
        }
        if !profile.counters.is_empty() {
            out.push_str(
                "# HELP tpi_prof_events_total tpi-prof pipeline event counters \
                 (simulated events, protocol operations).\n\
                 # TYPE tpi_prof_events_total counter\n",
            );
            for (name, value) in &profile.counters {
                let _ = writeln!(out, "tpi_prof_events_total{{event=\"{name}\"}} {value}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders() {
        let m = Metrics::default();
        m.record_request(Endpoint::Experiments, 200, Duration::from_millis(3));
        m.record_request(Endpoint::Experiments, 400, Duration::from_micros(100));
        m.record_request(Endpoint::Healthz, 200, Duration::from_micros(10));
        m.cells_computed.fetch_add(4, Ordering::Relaxed);
        let text = m.render(
            &RunnerStats::default(),
            &ProfileReport::default(),
            2,
            1,
            8,
            Duration::from_secs(5),
        );
        assert!(
            text.contains("tpi_serve_requests_total{endpoint=\"experiments\",status=\"200\"} 1")
        );
        assert!(
            text.contains("tpi_serve_requests_total{endpoint=\"experiments\",status=\"400\"} 1")
        );
        assert!(text.contains("tpi_serve_cells_computed_total 4"));
        assert!(text.contains("tpi_serve_queue_depth 2"));
        assert!(text.contains("tpi_serve_workers_total 8"));
        assert!(
            text.contains("tpi_serve_request_duration_seconds_count{endpoint=\"experiments\",} 2")
        );
        // A bucket wide enough for the 3 ms observation.
        assert!(text.contains(
            "tpi_serve_request_duration_seconds_bucket{endpoint=\"experiments\",le=\"0.005\"} 2"
        ));
        assert_eq!(m.requests_for(Endpoint::Experiments), 2);
    }

    #[test]
    fn fault_and_hardening_counters_render() {
        let m = Metrics::default();
        m.fault(FaultSite::WorkerPanic);
        m.fault(FaultSite::WorkerPanic);
        m.fault(FaultSite::ConnDrop);
        m.cell_panics.fetch_add(2, Ordering::Relaxed);
        m.worker_restarts.fetch_add(1, Ordering::Relaxed);
        m.record_request(Endpoint::Experiments, 500, Duration::from_millis(1));
        let text = m.render(
            &RunnerStats::default(),
            &ProfileReport::default(),
            0,
            0,
            4,
            Duration::from_secs(1),
        );
        assert!(text.contains("tpi_faults_injected_total{site=\"worker_panic\"} 2"));
        assert!(text.contains("tpi_faults_injected_total{site=\"conn_drop\"} 1"));
        // Silent sites are omitted.
        assert!(!text.contains("site=\"overload\""));
        assert!(text.contains("tpi_cell_panics_total 2"));
        assert!(text.contains("tpi_worker_restarts_total 1"));
        assert!(
            text.contains("tpi_serve_requests_total{endpoint=\"experiments\",status=\"500\"} 1")
        );
    }

    #[test]
    fn profile_stages_render_as_prof_series() {
        let m = Metrics::default();
        let profile = ProfileReport {
            stages: vec![tpi::StageProfile {
                path: "simulate".to_owned(),
                calls: 3,
                nanos: 2_000_000_000,
            }],
            counters: vec![("sim_events".to_owned(), 42)],
        };
        let text = m.render(
            &RunnerStats::default(),
            &profile,
            0,
            0,
            1,
            Duration::from_secs(1),
        );
        assert!(text.contains("tpi_prof_stage_wall_seconds{stage=\"simulate\"} 2"));
        assert!(text.contains("tpi_prof_stage_calls_total{stage=\"simulate\"} 3"));
        assert!(text.contains("tpi_prof_events_total{event=\"sim_events\"} 42"));
        // An empty profile emits none of the prof series.
        let empty = m.render(
            &RunnerStats::default(),
            &ProfileReport::default(),
            0,
            0,
            1,
            Duration::from_secs(1),
        );
        assert!(!empty.contains("tpi_prof_"));
    }

    #[test]
    fn histogram_counts_are_cumulative() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(100)); // <= 0.00025
        h.observe(Duration::from_millis(40)); // <= 0.05
        let mut out = String::new();
        h.render("x", "", &mut out);
        assert!(out.contains("x_bucket{le=\"0.00025\"} 1"));
        assert!(out.contains("x_bucket{le=\"0.05\"} 2"));
        assert!(out.contains("x_bucket{le=\"+Inf\"} 2"));
        assert!(out.contains("x_count{} 2"));
    }
}
