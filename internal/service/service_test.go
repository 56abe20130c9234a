package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	terp "repro"
)

// newTestServer boots a Server over httptest with a small pool.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func submit(t *testing.T, base, tenant string, spec terp.ExperimentSpec) (Status, *http.Response) {
	t.Helper()
	body, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("parsing submit response %q: %v", raw, err)
		}
	}
	return st, resp
}

func waitTerminal(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s: HTTP %d: %s", id, resp.StatusCode, raw)
		}
		var st Status
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Status{}
}

func fetch(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw, resp.StatusCode
}

// TestWireDeterminism is the service's core contract: a grid fetched
// from terpd is byte-identical to the same spec run offline via
// terp.Run, at -parallel 1 and at -parallel 8, with observability on.
func TestWireDeterminism(t *testing.T) {
	spec := terp.ExperimentSpec{
		Name: "table3",
		Opts: terp.ExpOpts{Ops: 300, Seed: 1},
	}
	spec.Obs.Trace = true
	spec.Obs.Metrics = true

	var offline [][]byte
	for _, parallel := range []int{1, 8} {
		off := spec
		off.Parallel = parallel
		g, err := terp.Run(off)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := g.JSON()
		if err != nil {
			t.Fatal(err)
		}
		offline = append(offline, buf)
	}
	if !bytes.Equal(offline[0], offline[1]) {
		t.Fatal("offline runs differ across -parallel levels (pre-existing determinism bug)")
	}

	for _, workers := range []int{1, 8} {
		_, hs := newTestServer(t, Config{Workers: workers})
		st, resp := submit(t, hs.URL, "acme", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		end := waitTerminal(t, hs.URL, st.ID)
		if end.State != StateDone {
			t.Fatalf("workers=%d: job ended %s: %s", workers, end.State, end.Error)
		}
		served, code := fetch(t, hs.URL+"/v1/jobs/"+st.ID+"/grid")
		if code != http.StatusOK {
			t.Fatalf("grid fetch: HTTP %d", code)
		}
		if !bytes.Equal(served, offline[0]) {
			t.Fatalf("workers=%d: served grid differs from offline run (%d vs %d bytes)",
				workers, len(served), len(offline[0]))
		}
	}
}

// TestAdmissionControl: a tenant beyond its queue depth gets 429 with
// Retry-After while other tenants still get in.
func TestAdmissionControl(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	// Slow-ish jobs so the queue stays occupied.
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 5000}}

	var ids []string
	for i := 0; i < 2; i++ {
		st, resp := submit(t, hs.URL, "greedy", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	_, resp := submit(t, hs.URL, "greedy", spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Another tenant is unaffected by the greedy tenant's full queue.
	if _, resp := submit(t, hs.URL, "polite", spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant rejected: HTTP %d", resp.StatusCode)
	}
	for _, id := range ids {
		waitTerminal(t, hs.URL, id)
	}
}

// TestCancelRunningJob: DELETE cancels a running job, the status turns
// canceled, and the grid endpoint answers 409 (no result).
func TestCancelRunningJob(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 50_000}}
	st, resp := submit(t, hs.URL, "acme", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body) //nolint:errcheck
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", dresp.StatusCode)
	}

	end := waitTerminal(t, hs.URL, st.ID)
	if end.State != StateCanceled {
		t.Fatalf("state after cancel = %s, want %s", end.State, StateCanceled)
	}
	if _, code := fetch(t, hs.URL+"/v1/jobs/"+st.ID+"/grid"); code != http.StatusConflict {
		t.Fatalf("grid of canceled job: HTTP %d, want 409", code)
	}

	// Cancelling a finished job is a 409 conflict.
	dresp2, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp2.Body) //nolint:errcheck
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel: HTTP %d, want 409", dresp2.StatusCode)
	}
}

// TestCancelQueuedJob: a job cancelled while still queued never runs.
func TestCancelQueuedJob(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	slow := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 20_000}}
	first, resp := submit(t, hs.URL, "acme", slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	queued, resp := submit(t, hs.URL, "acme", slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit queued: HTTP %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+queued.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body) //nolint:errcheck
	dresp.Body.Close()
	if st := waitTerminal(t, hs.URL, queued.ID); st.State != StateCanceled {
		t.Fatalf("queued job state = %s, want canceled", st.State)
	}
	if st := waitTerminal(t, hs.URL, first.ID); st.State != StateDone {
		t.Fatalf("first job state = %s, want done (cancel must not bleed)", st.State)
	}
}

// TestBadSpecRejected: malformed, unknown-version and unknown-name
// specs all bounce with 400 before touching the scheduler, and so does a
// sweep point below the 2 us EW floor, whose cell would never finish and
// would hold its worker for good.
func TestBadSpecRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{not json`,
		`{"version": 7, "name": "table3"}`,
		`{"name": "nope"}`,
		`{"name": "table3", "bogus": 1}`,
		`{"name": "ewsweep", "opts": {"ops": 50}, "ewMicros": [1]}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestEventsStream: the SSE endpoint delivers progress and ends with
// the terminal state.
func TestEventsStream(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 500}}
	st, resp := submit(t, hs.URL, "acme", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	eresp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(eresp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Fatalf("final event state = %s, want done (events: %+v)", last.State, events)
	}
	if last.Done != last.Total || last.Total == 0 {
		t.Fatalf("final event progress %d/%d, want full", last.Done, last.Total)
	}
}

// TestReportAndTraceServed: finished jobs serve a non-empty HTML report
// and a Chrome-trace JSON document when the spec collected obs.
func TestReportAndTraceServed(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 300}}
	spec.Obs.Trace = true
	spec.Obs.Metrics = true
	st, _ := submit(t, hs.URL, "acme", spec)
	if end := waitTerminal(t, hs.URL, st.ID); end.State != StateDone {
		t.Fatalf("job ended %s: %s", end.State, end.Error)
	}

	html, code := fetch(t, hs.URL+"/v1/jobs/"+st.ID+"/report")
	if code != http.StatusOK || !bytes.Contains(html, []byte("<html")) {
		t.Fatalf("report: HTTP %d, %d bytes", code, len(html))
	}
	trace, code := fetch(t, hs.URL+"/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: HTTP %d", code)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace is not Chrome-trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events despite tracing enabled")
	}
}

// TestStoreEviction: the LRU result store retains only the configured
// number of finished jobs; evicted grids 404.
func TestStoreEviction(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, StoreCap: 2, QueueDepth: 8})
	spec := terp.ExperimentSpec{Name: "fig8", Opts: terp.ExpOpts{Ops: 200}}
	var ids []string
	for i := 0; i < 3; i++ {
		st, resp := submit(t, hs.URL, "acme", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		waitTerminal(t, hs.URL, st.ID)
		ids = append(ids, st.ID)
	}
	if _, code := fetch(t, hs.URL+"/v1/jobs/"+ids[0]); code != http.StatusNotFound {
		t.Fatalf("oldest job: HTTP %d, want 404 after eviction", code)
	}
	for _, id := range ids[1:] {
		if _, code := fetch(t, hs.URL+"/v1/jobs/"+id); code != http.StatusOK {
			t.Fatalf("job %s: HTTP %d, want 200", id, code)
		}
	}
}

// TestStatsCounters: the stats endpoint accounts submissions,
// completions and rejections.
func TestStatsCounters(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 1})
	spec := terp.ExperimentSpec{Name: "fig8", Opts: terp.ExpOpts{Ops: 200}}
	st, _ := submit(t, hs.URL, "a", spec)
	waitTerminal(t, hs.URL, st.ID)

	raw, code := fetch(t, hs.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	var body statsBody
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Counters.Submitted != 1 || body.Counters.Completed != 1 {
		t.Fatalf("counters = %+v, want 1 submitted / 1 completed", body.Counters)
	}
	if body.Workers != 2 {
		t.Fatalf("workers = %d, want 2", body.Workers)
	}
}

// TestTenantFairness: two tenants submitting equal work to a 1-worker
// server finish in comparable time — neither is starved behind the
// other's whole backlog. We assert via completion interleaving: the
// second tenant's first job finishes before the first tenant's last.
func TestTenantFairness(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 1500}}

	// Tenant A floods four jobs; tenant B then submits one. Round-robin
	// at cell granularity must not make B wait for all of A's backlog.
	var aIDs []string
	for i := 0; i < 4; i++ {
		st, resp := submit(t, hs.URL, "flood", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("flood submit %d: HTTP %d", i, resp.StatusCode)
		}
		aIDs = append(aIDs, st.ID)
	}
	bst, resp := submit(t, hs.URL, "light", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("light submit: HTTP %d", resp.StatusCode)
	}

	waitTerminal(t, hs.URL, bst.ID)
	// When B finished, flood's last job must still be pending (it has 4x
	// the work and only equal shares of the single worker).
	raw, code := fetch(t, hs.URL+"/v1/jobs/"+aIDs[len(aIDs)-1])
	if code != http.StatusOK {
		t.Fatalf("flood tail: HTTP %d", code)
	}
	var tail Status
	if err := json.Unmarshal(raw, &tail); err != nil {
		t.Fatal(err)
	}
	if tail.State.Terminal() {
		t.Fatalf("flood tenant's last job finished before light tenant's only job — no fairness")
	}
	for _, id := range aIDs {
		waitTerminal(t, hs.URL, id)
	}
}
