package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	terp "repro"
	"repro/internal/ledger"
	"repro/internal/report"
)

// newLedgerServer boots a test server writing to a fresh ledger file.
func newLedgerServer(t *testing.T, workers int) (*Server, string, *ledger.Ledger) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	led, err := ledger.Open(path, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	s, hs := newTestServer(t, Config{Workers: workers, Ledger: led})
	return s, hs.URL, led
}

func runJob(t *testing.T, base string, spec terp.ExperimentSpec) Status {
	t.Helper()
	st, resp := submit(t, base, "acme", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	end := waitTerminal(t, base, st.ID)
	if end.State != StateDone {
		t.Fatalf("job %s ended %s: %s", st.ID, end.State, end.Error)
	}
	return end
}

// TestLedgerDoesNotPerturbResults is the observe-only contract: grids
// served with a ledger attached and being read concurrently are
// byte-identical to the offline run and to a ledger-less server.
func TestLedgerDoesNotPerturbResults(t *testing.T) {
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

	_, base, _ := newLedgerServer(t, 4)
	st, resp := submit(t, base, "acme", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	// Hammer the history surface while the job runs.
	stop := make(chan struct{})
	polling := make(chan struct{})
	go func() {
		defer close(polling)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, p := range []string{"/v1/history", "/v1/history/trend"} {
				resp, err := http.Get(base + p)
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}
	}()
	end := waitTerminal(t, base, st.ID)
	close(stop)
	<-polling
	if end.State != StateDone {
		t.Fatalf("job ended %s: %s", end.State, end.Error)
	}
	served, code := fetch(t, base+"/v1/jobs/"+st.ID+"/grid")
	if code != http.StatusOK {
		t.Fatalf("grid: HTTP %d", code)
	}
	if !bytes.Equal(served, offline) {
		t.Fatalf("served grid differs from offline run with a ledger attached (%d vs %d bytes)",
			len(served), len(offline))
	}

	// A ledger-less server serves the same bytes.
	_, hs := newTestServer(t, Config{Workers: 4})
	end2 := runJob(t, hs.URL, spec)
	served2, code := fetch(t, hs.URL+"/v1/jobs/"+end2.ID+"/grid")
	if code != http.StatusOK {
		t.Fatalf("grid: HTTP %d", code)
	}
	if !bytes.Equal(served, served2) {
		t.Fatal("grids differ between ledger and ledger-less servers")
	}
}

func TestHistoryEndpoint(t *testing.T) {
	// Without a ledger the surface says so.
	_, hs := newTestServer(t, Config{Workers: 2})
	if _, code := fetch(t, hs.URL+"/v1/history"); code != http.StatusNotFound {
		t.Fatalf("history without ledger: HTTP %d, want 404", code)
	}
	if _, code := fetch(t, hs.URL+"/v1/history/trend"); code != http.StatusNotFound {
		t.Fatalf("trend without ledger: HTTP %d, want 404", code)
	}

	srv, base, _ := newLedgerServer(t, 2)
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 200, Seed: 1}}
	first := runJob(t, base, spec)
	spec2 := spec
	spec2.Opts.Seed = 2
	second := runJob(t, base, spec2)

	raw, code := fetch(t, base+"/v1/history")
	if code != http.StatusOK {
		t.Fatalf("history: HTTP %d: %s", code, raw)
	}
	var body historyBody
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Count != 2 || len(body.Records) != 2 || body.Skipped != 0 {
		t.Fatalf("history = count %d, %d records, %d skipped; want 2, 2, 0", body.Count, len(body.Records), body.Skipped)
	}
	if body.Records[0].JobID != first.ID || body.Records[1].JobID != second.ID {
		t.Fatalf("records out of completion order: %s, %s", body.Records[0].JobID, body.Records[1].JobID)
	}
	for _, rec := range body.Records {
		if rec.Source != "terpd" || rec.Tenant != "acme" || rec.SpecHash == "" || rec.WallMS <= 0 {
			t.Fatalf("record missing identity: %+v", rec)
		}
	}
	if body.Records[0].SpecHash == body.Records[1].SpecHash {
		t.Fatal("different seeds must hash to different spec identities")
	}

	// ?limit keeps the most recent; ?spec filters by identity.
	raw, _ = fetch(t, base+"/v1/history?limit=1")
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Count != 1 || body.Records[0].JobID != second.ID {
		t.Fatalf("limit=1 = %+v, want only the latest", body)
	}
	raw, _ = fetch(t, base+"/v1/history?spec="+ledger.SpecHash(spec))
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Count != 1 || body.Records[0].JobID != first.ID {
		t.Fatalf("spec filter = %+v, want only the first job", body)
	}
	if _, code := fetch(t, base+"/v1/history?limit=x"); code != http.StatusBadRequest {
		t.Fatalf("bad limit: HTTP %d, want 400", code)
	}

	// The trend surface parses its parameters and answers over the
	// 2-run history (insufficient for the gate, but well-formed).
	raw, code = fetch(t, base+"/v1/history/trend?window=1&min=2&metric=sim/")
	if code != http.StatusOK {
		t.Fatalf("trend: HTTP %d: %s", code, raw)
	}
	var tr report.TrendReport
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Window != 1 || tr.MinRuns != 2 {
		t.Fatalf("trend params = %+v, want window 1 min 2", tr)
	}
	for _, s := range tr.Series {
		if !strings.HasPrefix(s.Metric, "sim/") {
			t.Fatalf("metric filter leaked %s", s.Metric)
		}
	}
	if _, code := fetch(t, base+"/v1/history/trend?window=0"); code != http.StatusBadRequest {
		t.Fatalf("bad window: HTTP %d, want 400", code)
	}

	// The dashboard panel gains a history section once records exist.
	panel, code := fetch(t, base+"/dashboard/panel")
	if code != http.StatusOK || !strings.Contains(string(panel), "history") ||
		!strings.Contains(string(panel), "<svg") {
		t.Fatalf("dashboard panel missing history sparklines (HTTP %d)", code)
	}
	_ = srv
}

// TestCompareEndpoint pins the differential contract: two jobs with
// identical specs report zero deltas and verdict pass, and the JSON is
// byte-identical across repeated calls and across worker-pool sizes.
func TestCompareEndpoint(t *testing.T) {
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 200, Seed: 1}}
	spec.Obs.Metrics = true

	bodiesByWorkers := map[int][]byte{}
	for _, workers := range []int{1, 4} {
		_, base, _ := newLedgerServer(t, workers)
		a := runJob(t, base, spec)
		b := runJob(t, base, spec)

		raw, code := fetch(t, base+"/v1/compare?a="+a.ID+"&b="+b.ID)
		if code != http.StatusOK {
			t.Fatalf("compare: HTTP %d: %s", code, raw)
		}
		again, _ := fetch(t, base+"/v1/compare?a="+a.ID+"&b="+b.ID)
		if !bytes.Equal(raw, again) {
			t.Fatal("repeated compare calls must return identical bytes")
		}
		bodiesByWorkers[workers] = raw

		var body compareBody
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatal(err)
		}
		if !body.IdenticalSpecs || !body.IdenticalGrids || body.Verdict != string(report.Pass) {
			t.Fatalf("identical jobs = %+v, want identical specs+grids, verdict pass", body)
		}
		if body.Regression == nil || body.Regression.Verdict != report.Pass {
			t.Fatalf("regression = %+v, want a pass diff over obs metrics", body.Regression)
		}
		for _, m := range body.Regression.Metrics {
			if m.Base != m.Cur {
				t.Fatalf("identical jobs differ on %s: %d vs %d", m.Name, m.Base, m.Cur)
			}
		}
		if len(body.Cells) == 0 {
			t.Fatal("compare should include per-cell deltas for same-experiment jobs")
		}
		for _, c := range body.Cells {
			if c.Base != c.Cur || float64(c.DeltaPct) != 0 {
				t.Fatalf("cell %s delta = %+v, want zero", c.Cell, c)
			}
		}
		for _, v := range body.Values {
			if float64(v.Delta) != 0 {
				t.Fatalf("value %s delta = %v, want 0", v.Name, float64(v.Delta))
			}
		}

		// The HTML panel renders the same verdict.
		html, code := fetch(t, base+"/v1/compare?a="+a.ID+"&b="+b.ID+"&format=html")
		if code != http.StatusOK || !strings.Contains(string(html), "pass") {
			t.Fatalf("html panel (HTTP %d) missing verdict", code)
		}
	}
	if !bytes.Equal(bodiesByWorkers[1], bodiesByWorkers[4]) {
		t.Fatal("compare bytes differ across worker-pool sizes")
	}
}

func TestCompareDetectsDifferingSpecs(t *testing.T) {
	_, base, _ := newLedgerServer(t, 2)
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 200, Seed: 1}}
	spec.Obs.Metrics = true
	a := runJob(t, base, spec)
	spec2 := spec
	spec2.Opts.Ops = 400
	b := runJob(t, base, spec2)

	raw, code := fetch(t, base+"/v1/compare?a="+a.ID+"&b="+b.ID)
	if code != http.StatusOK {
		t.Fatalf("compare: HTTP %d", code)
	}
	var body compareBody
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.IdenticalSpecs || body.IdenticalGrids {
		t.Fatalf("different ops compared identical: %+v", body)
	}
	if body.Verdict == string(report.Pass) {
		t.Fatalf("doubled ops verdict = %s, want a non-pass outcome", body.Verdict)
	}

	// Parameter errors: missing ids and unknown jobs.
	if _, code := fetch(t, base+"/v1/compare?a="+a.ID); code != http.StatusBadRequest {
		t.Fatalf("missing b: HTTP %d, want 400", code)
	}
	if _, code := fetch(t, base+"/v1/compare?a=nope&b="+b.ID); code != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", code)
	}
}

// TestCompareTraceOnlyJob: a trace-only job carries per-cell payloads
// but no merged metrics, so next to a metrics job there is nothing to
// gate on. Either way round, the endpoint answers 200 with no metric
// deltas and the byte-equality verdict "differ".
func TestCompareTraceOnlyJob(t *testing.T) {
	_, base, _ := newLedgerServer(t, 2)
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 200, Seed: 1}}
	spec.Obs.Metrics = true
	metrics := runJob(t, base, spec)
	spec.Obs.Metrics, spec.Obs.Trace = false, true
	traceOnly := runJob(t, base, spec)

	for _, pair := range [][2]string{{metrics.ID, traceOnly.ID}, {traceOnly.ID, metrics.ID}} {
		raw, code := fetch(t, base+"/v1/compare?a="+pair[0]+"&b="+pair[1])
		if code != http.StatusOK {
			t.Fatalf("compare %v: HTTP %d: %s", pair, code, raw)
		}
		var body compareBody
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatal(err)
		}
		if body.Regression != nil || body.IdenticalGrids || body.Verdict != "differ" {
			t.Fatalf("compare %v = %+v, want no regression and verdict differ", pair, body)
		}
	}
}

func TestGridETagConditionalFetch(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	spec := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 200, Seed: 1}}
	end := runJob(t, hs.URL, spec)
	url := hs.URL + "/v1/jobs/" + end.ID + "/grid"

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("ETag %q is not a strong quoted validator", etag)
	}
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Fatalf("Cache-Control %q should mark the grid immutable", cc)
	}

	cond := func(inm string) (int, int) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		return resp.StatusCode, buf.Len()
	}

	if code, n := cond(etag); code != http.StatusNotModified || n != 0 {
		t.Fatalf("matching etag: HTTP %d with %d bytes, want 304 empty", code, n)
	}
	// List and weak-validator forms still match; mismatches serve fresh.
	if code, _ := cond(`"deadbeef", ` + etag); code != http.StatusNotModified {
		t.Fatalf("etag in list: HTTP %d, want 304", code)
	}
	if code, _ := cond("W/" + etag); code != http.StatusNotModified {
		t.Fatalf("weak form: HTTP %d, want 304", code)
	}
	if code, _ := cond("*"); code != http.StatusNotModified {
		t.Fatalf("wildcard: HTTP %d, want 304", code)
	}
	if code, n := cond(`"deadbeef"`); code != http.StatusOK || n == 0 {
		t.Fatalf("stale etag: HTTP %d with %d bytes, want 200 with the grid", code, n)
	}

	// The validator is a pure content hash: a second job with the same
	// spec carries the same ETag.
	end2 := runJob(t, hs.URL, spec)
	resp2, err := http.Get(hs.URL + "/v1/jobs/" + end2.ID + "/grid")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("ETag"); got != etag {
		t.Fatalf("same grid bytes, different ETags: %q vs %q", got, etag)
	}
}
