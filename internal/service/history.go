package service

import (
	"bytes"
	"errors"
	"fmt"
	"html"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	terp "repro"
	"repro/internal/ledger"
	"repro/internal/report"
)

// The run-history surface: GET /v1/history lists the ledger's run
// records, GET /v1/history/trend analyzes them as per-metric time
// series, and GET /v1/compare diffs two finished jobs server-side.
// Everything here reads — the ledger and the job store are never
// written from these handlers — so the surface is safe to poll.

// errNoLedger answers the history endpoints on a server without a
// ledger.
var errNoLedger = errors.New("service: no run ledger configured (start terpd with -ledger)")

// historyBody is the GET /v1/history response.
type historyBody struct {
	// Count is the number of records returned; Skipped counts ledger
	// lines the reader rejected (torn writes, future schemas).
	Count   int             `json:"count"`
	Skipped int             `json:"skipped"`
	Records []ledger.Record `json:"records"`
}

// historyRecords reads and filters the ledger by the shared query
// parameters (exp, spec), most recent last.
func (s *Server) historyRecords(r *http.Request) ([]ledger.Record, int, error) {
	recs, skipped, err := s.ledger.Records()
	if err != nil {
		return nil, 0, err
	}
	exp := r.URL.Query().Get("exp")
	spec := r.URL.Query().Get("spec")
	if exp == "" && spec == "" {
		return recs, skipped, nil
	}
	var out []ledger.Record
	for _, rec := range recs {
		if exp != "" && rec.Experiment != exp {
			continue
		}
		if spec != "" && rec.SpecHash != spec {
			continue
		}
		out = append(out, rec)
	}
	return out, skipped, nil
}

// handleHistory lists run records, optionally filtered by ?exp=,
// ?spec= and bounded by ?limit= (most recent N).
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.ledger == nil {
		writeError(w, http.StatusNotFound, errNoLedger)
		return
	}
	recs, skipped, err := s.historyRecords(r)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad limit %q", v))
			return
		}
		if n < len(recs) {
			recs = recs[len(recs)-n:]
		}
	}
	if recs == nil {
		recs = []ledger.Record{}
	}
	writeJSON(w, http.StatusOK, historyBody{Count: len(recs), Skipped: skipped, Records: recs})
}

// handleHistoryTrend runs the trend analysis over the (filtered)
// history. ?metric= restricts series by name prefix; ?window= and
// ?min= override the gate parameters.
func (s *Server) handleHistoryTrend(w http.ResponseWriter, r *http.Request) {
	if s.ledger == nil {
		writeError(w, http.StatusNotFound, errNoLedger)
		return
	}
	recs, _, err := s.historyRecords(r)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	opt := report.TrendOpts{}
	q := r.URL.Query()
	for name, dst := range map[string]*int{"window": &opt.Window, "min": &opt.MinRuns} {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad %s %q", name, v))
				return
			}
			*dst = n
		}
	}
	series := ledger.Series(recs)
	if prefix := q.Get("metric"); prefix != "" {
		var kept []report.TrendSeries
		for _, s := range series {
			if strings.HasPrefix(s.Metric, prefix) {
				kept = append(kept, s)
			}
		}
		series = kept
	}
	writeJSON(w, http.StatusOK, report.Trend(series, opt))
}

// compareBody is the GET /v1/compare response: a deterministic diff
// of two finished jobs. Job a is the baseline, b the candidate. The
// body carries no wall-clock or host state, so comparing the same two
// grids always yields identical bytes.
type compareBody struct {
	A string `json:"a"`
	B string `json:"b"`
	// ExperimentA/B and SpecHashA/B identify each side's spec.
	ExperimentA string `json:"experimentA"`
	ExperimentB string `json:"experimentB"`
	SpecHashA   string `json:"specHashA"`
	SpecHashB   string `json:"specHashB"`
	// IdenticalSpecs: the spec identity hashes match (same experiment,
	// options, seed). IdenticalGrids: the result bytes match.
	IdenticalSpecs bool `json:"identicalSpecs"`
	IdenticalGrids bool `json:"identicalGrids"`
	// Verdict is the regression verdict when metric totals exist on
	// both sides; otherwise "pass" when the grids are byte-identical
	// and "differ" when they are not.
	Verdict string `json:"verdict"`
	// Regression holds the per-metric deltas with CI (nil when either
	// side ran without obs metrics or the experiments differ).
	Regression *report.Regression `json:"regression,omitempty"`
	// Cells holds per-cell total-sim-cycle deltas over the union of
	// both sides' cells.
	Cells []report.CellDelta `json:"cells,omitempty"`
	// Values holds the exposure/analysis rollup deltas (the same
	// rollups ledger records carry).
	Values []valueDelta `json:"values,omitempty"`
}

// valueDelta is one float rollup compared across the two jobs.
type valueDelta struct {
	Name string `json:"name"`
	// A and B are each side's value (null when the side lacks it).
	A report.Ratio `json:"a"`
	B report.Ratio `json:"b"`
	// Delta is B-A (null unless both sides have the value).
	Delta report.Ratio `json:"delta"`
}

// compareJob resolves one side of the comparison, writing the
// 400/404/409 itself. Deliberately strict: comparing an unfinished
// job is a conflict, not an empty diff.
func (s *Server) compareJob(w http.ResponseWriter, param, id string) (*Job, *terp.Grid, []byte) {
	if id == "" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("service: missing ?%s= job id (usage: /v1/compare?a=<job>&b=<job>)", param))
		return nil, nil, nil
	}
	j, err := s.sched.Lookup(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil, nil, nil
	}
	grid, gridJSON := j.Grid()
	if grid == nil {
		writeJSON(w, http.StatusConflict, j.Status())
		return nil, nil, nil
	}
	return j, grid, gridJSON
}

// handleCompare diffs two finished jobs: ?a= is the baseline, ?b= the
// candidate. ?format=html renders the panel instead of JSON.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ja, ga, rawA := s.compareJob(w, "a", q.Get("a"))
	if ja == nil {
		return
	}
	jb, gb, rawB := s.compareJob(w, "b", q.Get("b"))
	if jb == nil {
		return
	}
	body := compareGridPair(ja, ga, rawA, jb, gb, rawB)
	if q.Get("format") == "html" {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(compareHTML(body)) //nolint:errcheck
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// compareGridPair builds the diff body. Pure function of the two
// grids (plus job identity): no clocks, no maps in the output.
func compareGridPair(ja *Job, ga *terp.Grid, rawA []byte, jb *Job, gb *terp.Grid, rawB []byte) compareBody {
	body := compareBody{
		A: ja.ID, B: jb.ID,
		ExperimentA: ga.Name, ExperimentB: gb.Name,
		SpecHashA: ledger.SpecHash(ja.Spec), SpecHashB: ledger.SpecHash(jb.Spec),
	}
	body.IdenticalSpecs = body.SpecHashA == body.SpecHashB
	body.IdenticalGrids = bytes.Equal(rawA, rawB)

	// Metric deltas ride the baseline comparator over the grids' own
	// payloads; a side without metrics leaves Regression nil.
	body.Regression = report.Compare(
		[]report.Experiment{{Name: gb.Name, Obs: gb.Obs}},
		[]report.Experiment{{Name: ga.Name, Obs: ga.Obs}},
		report.RegressOpts{})
	if ga.Name == gb.Name {
		body.Cells = report.CellCycleDeltas(gb.Obs, ga.Obs)
	}
	body.Values = valueDeltas(
		ledger.FromGrid("terpd", ja.Spec, ga).Values,
		ledger.FromGrid("terpd", jb.Spec, gb).Values)

	switch {
	case body.Regression != nil:
		body.Verdict = string(body.Regression.Verdict)
	case body.IdenticalGrids:
		body.Verdict = string(report.Pass)
	default:
		body.Verdict = "differ"
	}
	return body
}

// valueDeltas pairs the two sides' float rollups over the sorted
// union of keys.
func valueDeltas(a, b map[string]float64) []valueDelta {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	names := make([]string, 0, len(a)+len(b))
	seen := map[string]bool{}
	for k := range a {
		names = append(names, k)
		seen[k] = true
	}
	for k := range b {
		if !seen[k] {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	nan := report.Ratio(math.NaN())
	var out []valueDelta
	for _, name := range names {
		d := valueDelta{Name: name, A: nan, B: nan, Delta: nan}
		va, oka := a[name]
		vb, okb := b[name]
		if oka {
			d.A = report.Ratio(va)
		}
		if okb {
			d.B = report.Ratio(vb)
		}
		if oka && okb {
			d.Delta = report.Ratio(vb - va)
		}
		out = append(out, d)
	}
	return out
}

// compareHTML renders the diff as a small self-contained panel.
func compareHTML(body compareBody) []byte {
	var b strings.Builder
	esc := html.EscapeString
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">")
	fmt.Fprintf(&b, "<title>compare %s vs %s</title>", esc(body.A), esc(body.B))
	b.WriteString(`<style>
  body { font: 14px system-ui, sans-serif; margin: 24px; color: #222; }
  h1 { font-size: 18px; } h2 { font-size: 15px; margin-top: 20px; }
  table { border-collapse: collapse; margin: 8px 0; }
  th, td { border: 1px solid #ddd; padding: 4px 10px; text-align: right; }
  th:first-child, td:first-child { text-align: left; }
  thead th { background: #f5f5f5; }
  .pass { color: #2a7a2a; } .improved { color: #1a6fb4; }
  .regressed { color: #b42318; } .differ { color: #b45309; }
</style></head><body>`)
	fmt.Fprintf(&b, "<h1>%s (baseline) vs %s &mdash; <span class=%q>%s</span></h1>",
		esc(body.A), esc(body.B), esc(body.Verdict), esc(body.Verdict))
	fmt.Fprintf(&b, "<p>experiment %s (spec %s) vs %s (spec %s); identical specs: %t, identical grids: %t</p>",
		esc(body.ExperimentA), esc(body.SpecHashA), esc(body.ExperimentB), esc(body.SpecHashB),
		body.IdenticalSpecs, body.IdenticalGrids)
	if body.Regression != nil {
		b.WriteString("<h2>metric deltas</h2><table><thead><tr><th>metric</th><th>base</th><th>current</th><th>delta%</th><th>ci&plusmn;%</th><th>n</th><th>verdict</th></tr></thead><tbody>")
		for _, m := range body.Regression.Metrics {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td><td>%d</td><td class=%q>%s</td></tr>",
				esc(m.Name), m.Base, m.Cur, fmtRatioPct(m.DeltaPct), fmtRatioPct(m.CIHalfPct), m.N,
				esc(m.Verdict), esc(m.Verdict))
		}
		b.WriteString("</tbody></table>")
	}
	if len(body.Cells) > 0 {
		b.WriteString("<h2>per-cell sim cycles</h2><table><thead><tr><th>cell</th><th>base</th><th>current</th><th>delta%</th></tr></thead><tbody>")
		for _, c := range body.Cells {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%s</td></tr>",
				esc(c.Cell), c.Base, c.Cur, fmtRatioPct(c.DeltaPct))
		}
		b.WriteString("</tbody></table>")
	}
	if len(body.Values) > 0 {
		b.WriteString("<h2>exposure rollups</h2><table><thead><tr><th>value</th><th>a</th><th>b</th><th>delta</th></tr></thead><tbody>")
		for _, v := range body.Values {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>",
				esc(v.Name), fmtRatioVal(v.A), fmtRatioVal(v.B), fmtRatioVal(v.Delta))
		}
		b.WriteString("</tbody></table>")
	}
	b.WriteString("</body></html>\n")
	return []byte(b.String())
}

func fmtRatioPct(r report.Ratio) string {
	v := float64(r)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "&mdash;"
	}
	return fmt.Sprintf("%+.3f%%", v)
}

func fmtRatioVal(r report.Ratio) string {
	v := float64(r)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "&mdash;"
	}
	return fmt.Sprintf("%.4g", v)
}
