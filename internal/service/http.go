package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	terp "repro"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// TenantHeader names the request header that identifies the submitting
// tenant; absent means DefaultTenant.
const TenantHeader = "X-Terp-Tenant"

// DefaultTenant is the tenant for unlabelled requests.
const DefaultTenant = "default"

// maxSpecBytes bounds a submitted spec document; real specs are a few
// hundred bytes, so anything larger is garbage or abuse.
const maxSpecBytes = 1 << 20

// Config sizes a Server.
type Config struct {
	// Workers is the shared pool size (<= 0 selects GOMAXPROCS).
	Workers int
	// QueueDepth bounds each tenant's queued+running jobs
	// (<= 0 selects DefaultQueueDepth).
	QueueDepth int
	// StoreCap bounds retained finished jobs (<= 0 selects
	// DefaultStoreCap).
	StoreCap int
	// AccessLog, when set, receives one callback per completed request
	// from the telemetry middleware — the same status/duration the
	// request histograms observed.
	AccessLog telemetry.AccessLog
	// Ledger, when set, receives one run record per completed job and
	// backs the /v1/history, /v1/history/trend and dashboard history
	// surfaces. Nil runs the server without durable history (the
	// endpoints answer 404).
	Ledger *ledger.Ledger
}

// Server ties the scheduler, result store, telemetry and HTTP API
// together.
type Server struct {
	sched   *Scheduler
	store   *Store
	metrics *Metrics
	ledger  *ledger.Ledger
	mux     *http.ServeMux
	handler http.Handler
	started time.Time
}

// New builds a ready-to-serve Server.
func New(cfg Config) *Server {
	store := NewStore(cfg.StoreCap)
	m := NewMetrics()
	s := &Server{
		sched:   NewScheduler(cfg.Workers, cfg.QueueDepth, store, m, cfg.Ledger),
		store:   store,
		metrics: m,
		ledger:  cfg.Ledger,
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/grid", s.handleGrid)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/history", s.handleHistory)
	s.mux.HandleFunc("GET /v1/history/trend", s.handleHistoryTrend)
	s.mux.HandleFunc("GET /v1/compare", s.handleCompare)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /dashboard", s.handleDashboard)
	s.mux.HandleFunc("GET /dashboard/panel", s.handleDashboardPanel)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// The middleware resolves the route label from the mux pattern (not
	// the raw URL), so series cardinality is bounded by the route table.
	s.handler = m.HTTP.Middleware(s.mux, func(r *http.Request) string {
		_, pattern := s.mux.Handler(r)
		return pattern
	}, cfg.AccessLog)
	return s
}

// Handler returns the HTTP API, instrumented by the telemetry
// middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics exposes the server's telemetry set.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Scheduler exposes the scheduler (tests, stats).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Close drains and shuts down the scheduler and its pool.
func (s *Server) Close() { s.sched.Close() }

// writeJSON writes a JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection owns delivery
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// handleSubmit admits one spec for the requesting tenant. The body is
// the versioned ExperimentSpec wire document — exactly what
// `terpbench -spec` reads — so offline and served runs share one
// format.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = DefaultTenant
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: reading spec: %w", err))
		return
	}
	spec, err := terp.ParseSpec(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.sched.Submit(tenant, spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

// lookup resolves the {id} path segment, writing the 404 itself.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	j, err := s.sched.Lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.sched.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrTerminal):
		writeJSON(w, http.StatusConflict, j.Status())
	default:
		writeJSON(w, http.StatusAccepted, j.Status())
	}
}

// finishedGrid fetches the job's grid, writing the conflict/404
// responses itself when the result is not servable.
func (s *Server) finishedGrid(w http.ResponseWriter, r *http.Request) (*Job, *terp.Grid, []byte) {
	j := s.lookup(w, r)
	if j == nil {
		return nil, nil, nil
	}
	grid, gridJSON := j.Grid()
	if grid == nil {
		st := j.Status()
		writeJSON(w, http.StatusConflict, st)
		return nil, nil, nil
	}
	return j, grid, gridJSON
}

// handleGrid serves the finished grid's canonical JSON — byte-identical
// to `terp.Run(spec).JSON()` offline. Finished grids are immutable, so
// the response carries a content-hash ETag and an immutable
// Cache-Control; a matching If-None-Match answers 304 with no body,
// which is what lets history/compare pollers and loadgen -verify
// re-fetches skip the (potentially large) grid payload.
func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	j, _, gridJSON := s.finishedGrid(w, r)
	if gridJSON == nil {
		return
	}
	etag := j.GridETag()
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(gridJSON) //nolint:errcheck
}

// etagMatch reports whether an If-None-Match header matches the tag
// (comma-separated candidates, weak validators compared by content,
// "*" matches anything).
func etagMatch(header, etag string) bool {
	if header == "" || etag == "" {
		return false
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" || strings.TrimPrefix(cand, "W/") == etag {
			return true
		}
	}
	return false
}

// handleReport serves the self-contained HTML run report built from the
// job's observability payload (informative but sparse when the spec ran
// without obs collection).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, grid, _ := s.finishedGrid(w, r)
	if grid == nil {
		return
	}
	title := fmt.Sprintf("terpd job %s (%s, tenant %s)", j.ID, grid.Name, j.Tenant)
	rep := report.Build(terp.ReportInput(title, []*terp.Grid{grid}))
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(report.HTML(rep)) //nolint:errcheck
}

// handleTrace serves the job's Perfetto-loadable Chrome trace: the
// deterministic sim-cycle tracks (empty when the spec ran without
// tracing) plus one wall-clock track carrying the host-side job
// lifecycle (queued, run, and the serve instant), so one view shows
// simulated and real time side by side.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, grid, _ := s.finishedGrid(w, r)
	if grid == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", "attachment; filename=trace.json")
	obs.WriteChromeTraceWall(w, grid.Traces(), "wall-clock (host)", j.wallSpans()) //nolint:errcheck
}

// wallSpans builds the wall-clock lifecycle track, origin at submit.
func (j *Job) wallSpans() []obs.WallSpan {
	submitted, started, finished := j.WallTimes()
	var spans []obs.WallSpan
	if !started.IsZero() {
		spans = append(spans, obs.WallSpan{Name: "queued", Start: 0, End: started.Sub(submitted)})
		if !finished.IsZero() {
			spans = append(spans, obs.WallSpan{Name: "run",
				Start: started.Sub(submitted), End: finished.Sub(submitted)})
		}
	}
	serve := time.Since(submitted)
	return append(spans, obs.WallSpan{Name: "serve", Start: serve, End: serve})
}

// handleEvents streams job progress as server-sent events: one `data:`
// line per Event, ending with the terminal state. The stream re-sends
// the final Status after the subscription closes so a slow reader never
// misses the outcome.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("service: streaming unsupported"))
		return
	}
	s.metrics.SSE.Inc()
	defer s.metrics.SSE.Dec()
	ch, cancel := j.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(ev Event) bool {
		buf, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", buf); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for {
		select {
		case ev, open := <-ch:
			if !open {
				st := j.Status()
				send(Event{Job: j.ID, State: st.State, Done: st.Done, Total: st.Total, Error: st.Error})
				return
			}
			if !send(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// experimentsBody is the GET /v1/experiments response.
type experimentsBody struct {
	Version     int      `json:"version"`
	Experiments []string `json:"experiments"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, experimentsBody{
		Version:     terp.WireVersion,
		Experiments: terp.Experiments(),
	})
}

// statsBody is the GET /v1/stats response: the scheduler counters and
// occupancy as before, plus the pool's lock-free snapshot and the full
// telemetry registry as JSON.
type statsBody struct {
	Counters  Counters            `json:"counters"`
	Queued    int                 `json:"queued"`
	Running   int                 `json:"running"`
	Tenants   int                 `json:"tenants"`
	Stored    int                 `json:"stored"`
	Workers   int                 `json:"workers"`
	UptimeSec float64             `json:"uptimeSec"`
	Pool      runner.PoolStats    `json:"pool"`
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	counters, queued, running, tenants := s.sched.Stats()
	writeJSON(w, http.StatusOK, statsBody{
		Counters:  counters,
		Queued:    queued,
		Running:   running,
		Tenants:   tenants,
		Stored:    s.store.Len(),
		Workers:   s.sched.Pool().Workers(),
		UptimeSec: time.Since(s.started).Seconds(),
		Pool:      s.sched.Pool().Stats(),
		Telemetry: s.metrics.Registry.Snapshot(),
	})
}

// handleMetrics serves the registry in Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.Registry.WritePrometheus(w) //nolint:errcheck // the connection owns delivery
}
