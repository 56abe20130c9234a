package service

import (
	"time"

	"repro/internal/runner"
	"repro/internal/telemetry"
)

// MetricPrefix namespaces every host-side series the service exports.
const MetricPrefix = "terpd_"

// Metrics is the service's wall-clock telemetry: the shared registry
// plus the handles the scheduler and HTTP layer update on their hot
// paths. It observes only — nothing here feeds back into scheduling or
// simulation, so grids stay byte-identical with telemetry on.
type Metrics struct {
	Registry *telemetry.Registry
	HTTP     *telemetry.HTTPMetrics
	SSE      *telemetry.Gauge // live /events subscribers

	submitted   *telemetry.Counter
	rejected    *telemetry.Counter
	finished    *telemetry.CounterVec // label: state (done/failed/canceled)
	queuedJobs  *telemetry.Gauge
	runningJobs *telemetry.Gauge
	queueDepth  *telemetry.GaugeVec   // label: tenant (queued+running)
	tenantJobs  *telemetry.CounterVec // label: tenant — completed jobs
	tenantCells *telemetry.CounterVec // label: tenant — cells of completed jobs
	queueWait   *telemetry.Histogram
	runSeconds  *telemetry.Histogram

	ledgerRecords *telemetry.Counter
	ledgerErrors  *telemetry.Counter
}

// NewMetrics builds the service metric set on a fresh registry and
// registers the Go runtime gauges.
func NewMetrics() *Metrics {
	r := telemetry.NewRegistry()
	m := &Metrics{
		Registry: r,
		HTTP:     telemetry.NewHTTPMetrics(r, MetricPrefix),
		SSE: r.Gauge(MetricPrefix+"http_sse_subscribers",
			"Live server-sent-event progress subscribers."),
		submitted: r.Counter(MetricPrefix+"jobs_submitted_total",
			"Jobs admitted past validation and admission control."),
		rejected: r.Counter(MetricPrefix+"jobs_rejected_total",
			"Submissions refused by per-tenant admission control (HTTP 429)."),
		finished: r.CounterVec(MetricPrefix+"jobs_finished_total",
			"Jobs retired, by terminal state.", "state"),
		queuedJobs: r.Gauge(MetricPrefix+"jobs_queued",
			"Jobs waiting behind their tenant's running job."),
		runningJobs: r.Gauge(MetricPrefix+"jobs_running",
			"Jobs currently executing on the pool."),
		queueDepth: r.GaugeVec(MetricPrefix+"queue_depth",
			"Queued+running jobs per tenant.", "tenant"),
		tenantJobs: r.CounterVec(MetricPrefix+"tenant_jobs_total",
			"Completed jobs per tenant.", "tenant"),
		tenantCells: r.CounterVec(MetricPrefix+"tenant_cells_total",
			"Simulated cells of completed jobs per tenant.", "tenant"),
		queueWait: r.Histogram(MetricPrefix+"queue_wait_seconds",
			"Wall-clock submit-to-start wait.", nil),
		runSeconds: r.Histogram(MetricPrefix+"job_run_seconds",
			"Wall-clock start-to-finish run duration.", nil),
		ledgerRecords: r.Counter(MetricPrefix+"ledger_records_total",
			"Run records appended to the ledger."),
		ledgerErrors: r.Counter(MetricPrefix+"ledger_errors_total",
			"Ledger appends that failed (the job itself is unaffected)."),
	}
	telemetry.RegisterRuntime(r, MetricPrefix)
	return m
}

// bindPool exports the pool's lock-free occupancy snapshot as gauges
// and monotonic counters, sampled at scrape time.
func (m *Metrics) bindPool(p *runner.Pool) {
	r := m.Registry
	r.GaugeFunc(MetricPrefix+"pool_workers", "Worker goroutines in the shared pool.",
		func() float64 { return float64(p.Stats().Workers) })
	r.GaugeFunc(MetricPrefix+"pool_busy_workers", "Workers currently executing a cell.",
		func() float64 { return float64(p.Stats().BusyWorkers) })
	r.GaugeFunc(MetricPrefix+"pool_active_jobs", "Jobs with unclaimed or in-flight cells.",
		func() float64 { return float64(p.Stats().ActiveJobs) })
	r.GaugeFunc(MetricPrefix+"pool_queued_cells", "Cells submitted and not yet claimed.",
		func() float64 { return float64(p.Stats().QueuedCells) })
	r.GaugeFunc(MetricPrefix+"pool_inflight_cells", "Cells claimed and not yet recorded.",
		func() float64 { return float64(p.Stats().InFlightCells) })
	r.CounterFunc(MetricPrefix+"pool_cells_claimed_total", "Cells ever claimed by a worker.",
		func() float64 { return float64(p.Stats().ClaimedCells) })
	r.CounterFunc(MetricPrefix+"pool_cells_completed_total", "Cells ever finished.",
		func() float64 { return float64(p.Stats().CompletedCells) })
	r.CounterFunc(MetricPrefix+"cell_panics_total", "Cells whose run panicked (each fails its job).",
		func() float64 { return float64(p.Stats().CellPanics) })
}

// jobFinished accounts one retired job.
func (m *Metrics) jobFinished(j *Job, state State, runDur time.Duration) {
	m.finished.With(string(state)).Inc()
	if runDur > 0 {
		m.runSeconds.Observe(runDur.Seconds())
	}
	if state == StateDone {
		m.tenantJobs.With(j.Tenant).Inc()
		m.tenantCells.With(j.Tenant).Add(uint64(j.Total))
	}
}
