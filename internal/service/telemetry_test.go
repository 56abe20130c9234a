package service

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	terp "repro"
)

// scrape fetches /metrics and parses the exposition into a map of
// "name{labels}" -> value.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	series := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		series[line[:i]] = v
	}
	return series
}

// TestMetricsScrapeEndToEnd: boot the server, run a job, and scrape
// /metrics twice — the core series exist, count the work done, and the
// request counters are monotonic between scrapes.
func TestMetricsScrapeEndToEnd(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 200}}
	st, resp := submit(t, hs.URL, "acme", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	end := waitTerminal(t, hs.URL, st.ID)
	if end.State != StateDone {
		t.Fatalf("job ended %s: %s", end.State, end.Error)
	}
	if end.Total == 0 {
		t.Fatal("table3 job reported zero cells — cell counters below would be vacuous")
	}

	first := scrape(t, hs.URL)
	for _, name := range []string{
		`terpd_http_requests_total{route="POST /v1/jobs",method="POST",status="202"}`,
		`terpd_http_request_seconds_bucket{route="POST /v1/jobs",le="+Inf"}`,
		`terpd_queue_depth{tenant="acme"}`,
		"terpd_jobs_submitted_total",
		`terpd_jobs_finished_total{state="done"}`,
		`terpd_tenant_cells_total{tenant="acme"}`,
		"terpd_pool_workers",
		"terpd_pool_cells_completed_total",
		"terpd_cell_panics_total",
		"terpd_queue_wait_seconds_count",
		"terpd_job_run_seconds_count",
		"terpd_go_goroutines",
	} {
		if _, ok := first[name]; !ok {
			t.Errorf("scrape missing series %s", name)
		}
	}
	if v := first["terpd_cell_panics_total"]; v != 0 {
		t.Errorf("cell panics = %v, want 0", v)
	}
	if v := first["terpd_jobs_submitted_total"]; v != 1 {
		t.Errorf("jobs submitted = %v, want 1", v)
	}
	if v := first[`terpd_jobs_finished_total{state="done"}`]; v != 1 {
		t.Errorf("jobs finished done = %v, want 1", v)
	}
	if v := first["terpd_pool_workers"]; v != 2 {
		t.Errorf("pool workers = %v, want 2", v)
	}
	if v := first[`terpd_queue_depth{tenant="acme"}`]; v != 0 {
		t.Errorf("queue depth after completion = %v, want 0", v)
	}
	if v := first[`terpd_tenant_cells_total{tenant="acme"}`]; v != float64(end.Total) {
		t.Errorf("tenant cells = %v, want %d", v, end.Total)
	}
	if first["terpd_pool_cells_completed_total"] != float64(end.Total) {
		t.Errorf("pool completed cells = %v, want %d", first["terpd_pool_cells_completed_total"], end.Total)
	}

	// A second scrape observes the first: counters are monotonic.
	second := scrape(t, hs.URL)
	req := `terpd_http_requests_total{route="GET /metrics",method="GET",status="200"}`
	if second[req] < first[req]+1 {
		t.Errorf("metrics request counter not monotonic: %v then %v", first[req], second[req])
	}
	for name, v := range first {
		if !strings.Contains(name, "_total") {
			continue
		}
		if strings.HasPrefix(name, "terpd_go_") {
			continue // runtime totals can't regress either, but skip timing flake surface
		}
		if second[name] < v {
			t.Errorf("counter %s went backwards: %v -> %v", name, v, second[name])
		}
	}
}

// TestTelemetryDoesNotPerturbResults: a grid served while /metrics is
// being scraped in a tight loop is still byte-identical to the offline
// run — telemetry observes, it never feeds back into simulation.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 300, Seed: 1}}
	spec.Obs.Metrics = true
	g, err := terp.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, Config{Workers: 4})
	st, resp := submit(t, hs.URL, "acme", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	stop := make(chan struct{})
	scraping := make(chan struct{})
	go func() {
		defer close(scraping)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(hs.URL + "/metrics")
			if err != nil {
				return
			}
			resp.Body.Close()
		}
	}()
	end := waitTerminal(t, hs.URL, st.ID)
	close(stop)
	<-scraping
	if end.State != StateDone {
		t.Fatalf("job ended %s: %s", end.State, end.Error)
	}
	served, code := fetch(t, hs.URL+"/v1/jobs/"+st.ID+"/grid")
	if code != http.StatusOK {
		t.Fatalf("grid: HTTP %d", code)
	}
	if !bytes.Equal(served, offline) {
		t.Fatalf("served grid differs from offline run under scrape load (%d vs %d bytes)",
			len(served), len(offline))
	}
}

// TestCPUProfileLabelsJobsAndCells takes a CPU profile around a served
// job. Its samples carry the job's job and tenant labels and each cell's
// exp and cell labels, so the gzipped profile holds their strings, and
// the grid is byte-identical to the offline run.
func TestCPUProfileLabelsJobsAndCells(t *testing.T) {
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 10000, Seed: 1}}
	g, err := terp.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, Config{Workers: 2})
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("profiler busy (a -cpuprofile run): %v", err)
	}
	defer pprof.StopCPUProfile()
	const tenant = "profiled-tenant"
	st, resp := submit(t, hs.URL, tenant, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	end := waitTerminal(t, hs.URL, st.ID)
	pprof.StopCPUProfile()
	if end.State != StateDone {
		t.Fatalf("job ended %s: %s", end.State, end.Error)
	}
	served, code := fetch(t, hs.URL+"/v1/jobs/"+st.ID+"/grid")
	if code != http.StatusOK {
		t.Fatalf("grid: HTTP %d", code)
	}
	if !bytes.Equal(served, offline) {
		t.Fatalf("grid served under a CPU profile differs from the offline run (%d vs %d bytes)",
			len(served), len(offline))
	}

	zr, err := gzip.NewReader(&prof)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"job", st.ID, "tenant", tenant, "exp", spec.Name, "cell"} {
		if !bytes.Contains(raw, []byte(s)) {
			t.Errorf("profile has no string %q", s)
		}
	}
	labeled := 0
	for _, c := range cells {
		if bytes.Contains(raw, []byte(c.Name())) {
			labeled++
		}
	}
	if labeled == 0 {
		t.Errorf("profile names none of the %d cells", len(cells))
	}
	t.Logf("%d of %d cells sampled", labeled, len(cells))
}

// TestTraceHasWallTrack: a served trace carries both the sim-cycle
// tracks and the wall-clock job-lifecycle track in one document.
func TestTraceHasWallTrack(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 300}}
	spec.Obs.Trace = true
	spec.Obs.Metrics = true
	st, _ := submit(t, hs.URL, "acme", spec)
	if end := waitTerminal(t, hs.URL, st.ID); end.State != StateDone {
		t.Fatalf("job ended %s: %s", end.State, end.Error)
	}

	raw, code := fetch(t, hs.URL+"/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: HTTP %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not Chrome-trace JSON: %v", err)
	}
	wallPid := -1
	simEvents := 0
	for _, e := range doc.TraceEvents {
		if e.Name == "process_name" && e.Args["name"] == "wall-clock (host)" {
			wallPid = e.Pid
		}
		if e.Cat != "wall" && e.Cat != "__metadata" {
			simEvents++
		}
	}
	if wallPid < 0 {
		t.Fatal("trace has no wall-clock (host) process")
	}
	if simEvents == 0 {
		t.Fatal("trace lost its sim-cycle events")
	}
	phases := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Pid == wallPid && e.Cat == "wall" {
			phases[e.Name] = true
		}
	}
	for _, want := range []string{"queued", "run", "serve"} {
		if !phases[want] {
			t.Errorf("wall track missing %q phase (got %v)", want, phases)
		}
	}
}

// TestStatsIncludesTelemetry: /v1/stats carries the pool snapshot and
// the full registry as JSON alongside the legacy counters.
func TestStatsIncludesTelemetry(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 200}}
	st, _ := submit(t, hs.URL, "acme", spec)
	if end := waitTerminal(t, hs.URL, st.ID); end.State != StateDone {
		t.Fatalf("job ended %s: %s", end.State, end.Error)
	}

	raw, code := fetch(t, hs.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	var body statsBody
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Pool.Workers != 2 {
		t.Errorf("pool workers = %d, want 2", body.Pool.Workers)
	}
	if body.Pool.CompletedCells == 0 {
		t.Error("pool completed cells = 0 after a finished job")
	}
	if body.UptimeSec <= 0 {
		t.Errorf("uptime = %v, want > 0", body.UptimeSec)
	}
	if body.Telemetry == nil || len(body.Telemetry.Families) == 0 {
		t.Fatal("stats missing telemetry snapshot")
	}
	found := false
	for _, f := range body.Telemetry.Families {
		if f.Name == "terpd_jobs_submitted_total" {
			found = true
			if len(f.Metrics) != 1 || f.Metrics[0].Value != 1 {
				t.Errorf("submitted snapshot = %+v, want value 1", f.Metrics)
			}
		}
	}
	if !found {
		t.Error("telemetry snapshot missing terpd_jobs_submitted_total")
	}
}

// TestDashboardServed: the shell is self-contained HTML and the panel
// fragment renders the inline-SVG charts and latency table.
func TestDashboardServed(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 200}}
	st, _ := submit(t, hs.URL, "acme", spec)
	waitTerminal(t, hs.URL, st.ID)

	shell, code := fetch(t, hs.URL+"/dashboard")
	if code != http.StatusOK || !bytes.Contains(shell, []byte("<html")) {
		t.Fatalf("dashboard: HTTP %d, %d bytes", code, len(shell))
	}
	if bytes.Contains(shell, []byte("src=\"http")) || bytes.Contains(shell, []byte("href=\"http")) {
		t.Error("dashboard shell references external assets")
	}
	panel, code := fetch(t, hs.URL+"/dashboard/panel")
	if code != http.StatusOK {
		t.Fatalf("dashboard panel: HTTP %d", code)
	}
	for _, want := range []string{"<svg", "acme", "workers busy", "<table"} {
		if !bytes.Contains(panel, []byte(want)) {
			t.Errorf("dashboard panel missing %q:\n%s", want, panel)
		}
	}
}

// TestSSEGaugeTracksSubscribers: the subscriber gauge rises while a
// stream is open and falls back to zero when it closes.
func TestSSEGaugeTracksSubscribers(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 20_000}}
	st, resp := submit(t, hs.URL, "acme", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	eresp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.SSE.Value() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if v := s.metrics.SSE.Value(); v != 1 {
		t.Errorf("SSE gauge with one open stream = %d, want 1", v)
	}
	eresp.Body.Close()
	for s.metrics.SSE.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if v := s.metrics.SSE.Value(); v != 0 {
		t.Errorf("SSE gauge after close = %d, want 0", v)
	}
	waitTerminal(t, hs.URL, st.ID)
}
