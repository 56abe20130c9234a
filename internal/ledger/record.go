// Package ledger is the durable run history: an append-only,
// crash-safe JSONL store of run records, one per completed job or
// bench run. Records carry the spec identity hash, the experiment's
// cell-metric rollups (sim cycles by account, exposure percentiles,
// crash/litmus counts), wall-clock stats and build info — everything
// the trend analytics in internal/report and the terpd history/compare
// endpoints need to reason about runs long after the producing process
// exited.
//
// The ledger observes and never steers: nothing read from it feeds
// back into scheduling or simulation, so grids stay byte-identical
// with a ledger attached, detached, or being read concurrently.
package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"

	terp "repro"
	"repro/internal/stats"
)

// SchemaVersion is the record-schema generation this build writes.
// Readers skip records from a newer generation instead of
// half-understanding them; bump it for incompatible changes (renamed
// keys, changed units), never for purely additive evolution.
const SchemaVersion = 1

// Record is one completed run. Metrics holds integer rollups (the
// obs totals counters plus crash/litmus counts); Values holds float
// rollups (exposure-window percentiles, sweep means). Keys are stable
// slash-separated names so trend series survive schema growth.
type Record struct {
	// Schema is the record-schema generation (SchemaVersion).
	Schema int `json:"schema"`
	// Time is the append instant, RFC3339 UTC. Informational only —
	// nothing downstream orders or gates on it.
	Time string `json:"time,omitempty"`
	// Source names the producer: "terpd" or "terpbench". Older ledgers
	// may also hold "terpreport" records.
	Source string `json:"source"`
	// JobID and Tenant identify the terpd job (empty for CLI runs).
	JobID  string `json:"jobId,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// SpecHash keys the record's trend series: equal hashes mean the
	// specs produce byte-identical grids (see SpecHash).
	SpecHash string `json:"specHash"`
	// Experiment, Seed, Ops, Scale echo the effective spec.
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`
	Ops        int    `json:"ops"`
	Scale      int    `json:"scale"`
	// Cells is the spec's enumerated cell count (0 for pure analysis).
	Cells int `json:"cells"`
	// Metrics are the integer rollups: every obs totals counter (when
	// the run collected metrics) plus the crash/* and litmus/* row sums,
	// which take the place of obs counters of the same name.
	Metrics map[string]uint64 `json:"metrics,omitempty"`
	// Values are the float rollups: exposure-window percentiles from
	// the Table III rows and sweep means from the EW frontier.
	Values map[string]float64 `json:"values,omitempty"`
	// WallMS is the host-side run duration in milliseconds (0 when the
	// producer did not measure it). Machine-dependent, never gated on
	// by default.
	WallMS float64 `json:"wallMs,omitempty"`
	// Build identifies the producing toolchain (go version).
	Build string `json:"build,omitempty"`
}

// SpecHash returns the spec's identity hash: a truncated sha256 over
// the canonical wire form (see terp.ExperimentSpec.Canonical). Two
// specs hash equal exactly when they produce byte-identical grids, so
// the hash is the ledger's trend-series key and the compare
// endpoint's "same experiment?" test.
func SpecHash(spec terp.ExperimentSpec) string {
	buf, err := json.Marshal(spec.Canonical())
	if err != nil {
		// ExperimentSpec has no unmarshalable fields; keep the
		// signature hash-like even if that ever changes.
		return "unhashable"
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// FromGrid builds the deterministic part of a run record from a
// finished grid: identity, spec echo, and the metric/value rollups.
// Time, Build, JobID/Tenant and WallMS are the caller's (or Append's)
// to fill — two calls over the same grid return equal records.
func FromGrid(source string, spec terp.ExperimentSpec, g *terp.Grid) Record {
	canon := spec.Canonical()
	cells, _ := canon.Cells()
	r := Record{
		Schema:     SchemaVersion,
		Source:     source,
		SpecHash:   SpecHash(spec),
		Experiment: g.Name,
		Seed:       g.Opts.Seed,
		Ops:        g.Opts.Ops,
		Scale:      g.Opts.Scale,
		Cells:      len(cells),
		Metrics:    map[string]uint64{},
		Values:     map[string]float64{},
	}
	if g.Obs != nil && g.Obs.Totals != nil {
		for _, name := range g.Obs.Totals.Names() {
			r.Metrics[name] = g.Obs.Totals.Get(name)
		}
	}
	rollupWhisper(g.Whisper, r.Values)
	rollupFrontier(g.Frontier, r.Values)
	rollupCrash(g.Crash, r.Metrics)
	rollupLitmus(g.Litmus, r.Metrics)
	if len(r.Metrics) == 0 {
		r.Metrics = nil
	}
	if len(r.Values) == 0 {
		r.Values = nil
	}
	return r
}

// rollupWhisper distills the Table III exposure rows: means and high
// percentiles of the thread-level and process-level windows, and the
// MERR baseline for contrast. Keys follow expo/<scheme>/<figure>/<agg>.
func rollupWhisper(rows []terp.WhisperRow, out map[string]float64) {
	if len(rows) == 0 {
		return
	}
	collect := func(f func(terp.WhisperRow) float64) []float64 {
		xs := make([]float64, len(rows))
		for i, r := range rows {
			xs[i] = f(r)
		}
		return xs
	}
	put := func(key string, xs []float64, agg string) {
		switch agg {
		case "mean":
			out[key+"/mean"] = stats.Mean(xs)
		case "p99":
			out[key+"/p99"] = stats.Percentile(xs, 99)
		case "max":
			m := math.Inf(-1)
			for _, x := range xs {
				m = math.Max(m, x)
			}
			out[key+"/max"] = m
		}
	}
	tew := collect(func(r terp.WhisperRow) float64 { return r.TEW })
	put("expo/tt/tew_us", tew, "mean")
	put("expo/tt/tew_us", tew, "p99")
	ter := collect(func(r terp.WhisperRow) float64 { return r.TER })
	put("expo/tt/ter", ter, "mean")
	put("expo/tt/ter", ter, "p99")
	put("expo/tt/ew_avg_us", collect(func(r terp.WhisperRow) float64 { return r.TTEWAvg }), "mean")
	put("expo/tt/ew_max_us", collect(func(r terp.WhisperRow) float64 { return r.TTEWMax }), "max")
	put("expo/mm/ew_avg_us", collect(func(r terp.WhisperRow) float64 { return r.MMEWAvg }), "mean")
	put("expo/mm/er", collect(func(r terp.WhisperRow) float64 { return r.MMER }), "mean")
}

// rollupFrontier distills the EW sweep: mean overhead and probe
// success across the sweep points.
func rollupFrontier(rows []terp.EWSweepRow, out map[string]float64) {
	if len(rows) == 0 {
		return
	}
	var over, succT, succM []float64
	for _, r := range rows {
		over = append(over, r.OverheadPct)
		succT = append(succT, r.TERPSuccPct)
		succM = append(succM, r.MERRSuccPct)
	}
	out["ewsweep/overhead_pct/mean"] = stats.Mean(over)
	out["ewsweep/terp_succ_pct/mean"] = stats.Mean(succT)
	out["ewsweep/merr_succ_pct/mean"] = stats.Mean(succM)
}

// rollupCrash sums the fault-injection matrix. The sums are the one
// definition of their keys: they replace the obs totals of the same
// names, which count the same points when the run collected metrics.
func rollupCrash(rows []terp.CrashRow, out map[string]uint64) {
	if len(rows) == 0 {
		return
	}
	var points, checked, failures uint64
	for _, r := range rows {
		points += uint64(r.Points)
		checked += uint64(r.Checked)
		failures += uint64(r.Failures)
	}
	out["crash/points"] = points
	out["crash/checked"] = checked
	out["crash/failures"] = failures
}

// rollupLitmus sums the persistency-litmus matrix. Like rollupCrash's,
// the sums replace obs totals of the same names; the obs counter
// litmus/modelstates keeps its own spelling next to litmus/modelStates.
func rollupLitmus(rows []terp.LitmusRow, out map[string]uint64) {
	if len(rows) == 0 {
		return
	}
	var programs, modelStates, modelOnly, violations uint64
	for _, r := range rows {
		programs += uint64(r.Programs)
		modelStates += uint64(r.ModelStates)
		modelOnly += uint64(r.ModelOnly)
		violations += uint64(r.Violations)
	}
	out["litmus/programs"] = programs
	out["litmus/modelStates"] = modelStates
	out["litmus/modelOnly"] = modelOnly
	out["litmus/violations"] = violations
}
