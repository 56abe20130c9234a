package report

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/stats"
)

// CDFPoint is one point of an empirical duration CDF: Frac of the
// samples are <= Micros.
type CDFPoint struct {
	Micros float64 `json:"micros"`
	Frac   float64 `json:"frac"`
}

// Span is one exposure interval of a PMO timeline, in microseconds from
// run start.
type Span struct {
	StartMicros float64 `json:"start"`
	EndMicros   float64 `json:"end"`
}

// PMOTimeline is one PMO's exposure timeline within one cell.
type PMOTimeline struct {
	// Cell is the owning cell; PMO the object the windows belong to.
	Cell string `json:"cell"`
	PMO  int64  `json:"pmo"`
	// Spans are the exposure intervals (possibly truncated, see
	// TruncatedFrom).
	Spans []Span `json:"spans"`
	// TruncatedFrom is the real span count when len(Spans) was capped;
	// 0 means nothing was dropped.
	TruncatedFrom int `json:"truncatedFrom,omitempty"`
}

// ExposureGroup summarizes the exposure windows of one configuration
// label (e.g. "MM(40us)" vs "TT(40us)" — the MERR vs TERP comparison).
type ExposureGroup struct {
	// Label is the configuration; Cells how many cells contributed.
	Label string `json:"label"`
	Cells int    `json:"cells"`
	// EW summarizes process-level exposure windows, TEW thread-level
	// ones.
	EW  WindowStats `json:"ew"`
	TEW WindowStats `json:"tew"`
	// Timelines holds per-PMO exposure timelines (bounded, see
	// maxTimelinePMOs).
	Timelines []PMOTimeline `json:"timelines,omitempty"`
	// TimelinePMOs is the real distinct-PMO count when Timelines was
	// capped; 0 means nothing was dropped.
	TimelinePMOs int `json:"timelinePMOs,omitempty"`
}

// WindowStats are the duration statistics of one window population.
type WindowStats struct {
	// Count is the number of closed windows; PMOs the distinct objects.
	Count int `json:"count"`
	PMOs  int `json:"pmos"`
	// MeanMicros, P50..MaxMicros are duration percentiles in us.
	MeanMicros float64 `json:"mean"`
	P50        float64 `json:"p50"`
	P90        float64 `json:"p90"`
	P99        float64 `json:"p99"`
	MaxMicros  float64 `json:"max"`
	// CDF is the (downsampled) duration CDF.
	CDF []CDFPoint `json:"cdf,omitempty"`
}

// ExposureReport is one experiment's exposure analysis.
type ExposureReport struct {
	// Groups holds one entry per configuration label, in first-seen
	// (enumeration) order.
	Groups []ExposureGroup `json:"groups"`
}

// maxCDFPoints bounds the rendered CDF resolution.
const maxCDFPoints = 64

// analyzeExposure reconstructs exposure windows from every cell's trace
// and groups them by configuration label. It returns nil when no cell
// carries expo events.
func analyzeExposure(cells []*obs.CellObs) *ExposureReport {
	type acc struct {
		cells    int
		ew, tew  []float64 // durations in us
		ewPMOs   map[int64]bool
		tewPMOs  map[int64]bool
		timeline []PMOTimeline
		tlPMOs   int
	}
	var order []string
	groups := make(map[string]*acc)

	for _, c := range cells {
		if len(c.Events) == 0 {
			continue
		}
		ws := obs.Windows(c.Events)
		ews := obs.FilterWindows(ws, obs.CatExpo, "ew")
		tews := obs.FilterWindows(ws, obs.CatExpo, "tew")
		if len(ews) == 0 && len(tews) == 0 {
			continue
		}
		label := cellLabel(c.Cell)
		g := groups[label]
		if g == nil {
			g = &acc{ewPMOs: make(map[int64]bool), tewPMOs: make(map[int64]bool)}
			groups[label] = g
			order = append(order, label)
		}
		g.cells++
		for _, w := range ews {
			g.ew = append(g.ew, params.ToMicros(w.Cycles()))
			g.ewPMOs[w.Arg] = true
		}
		for _, w := range tews {
			g.tew = append(g.tew, params.ToMicros(w.Cycles()))
			// tew args fold the thread into the high bits; mask it off so
			// PMO counting matches the ew side.
			g.tewPMOs[w.Arg&0xffffffff] = true
		}
		// Timelines come from the group's first contributing cell, capped
		// at maxTimelinePMOs objects; the cap is recorded, never silent.
		if g.timeline == nil && len(ews) > 0 {
			g.timeline, g.tlPMOs = buildTimelines(c.Cell, ews)
		}
	}
	if len(order) == 0 {
		return nil
	}
	out := &ExposureReport{}
	for _, label := range order {
		g := groups[label]
		eg := ExposureGroup{
			Label:     label,
			Cells:     g.cells,
			EW:        windowStats(g.ew, len(g.ewPMOs)),
			TEW:       windowStats(g.tew, len(g.tewPMOs)),
			Timelines: g.timeline,
		}
		if g.tlPMOs > len(g.timeline) {
			eg.TimelinePMOs = g.tlPMOs
		}
		out.Groups = append(out.Groups, eg)
	}
	return out
}

// windowStats folds a duration population into its summary + CDF.
func windowStats(durs []float64, pmos int) WindowStats {
	st := WindowStats{Count: len(durs), PMOs: pmos}
	if len(durs) == 0 {
		return st
	}
	st.MeanMicros = stats.Mean(durs)
	st.P50 = stats.Percentile(durs, 50)
	st.P90 = stats.Percentile(durs, 90)
	st.P99 = stats.Percentile(durs, 99)
	st.MaxMicros = stats.Percentile(durs, 100)
	st.CDF = buildCDF(durs)
	return st
}

// buildCDF returns the empirical CDF of durs, downsampled to at most
// maxCDFPoints evenly spaced quantiles (always keeping the max).
func buildCDF(durs []float64) []CDFPoint {
	n := len(durs)
	if n == 0 {
		return nil
	}
	sorted := append([]float64(nil), durs...)
	sort.Float64s(sorted)
	step := 1
	if n > maxCDFPoints {
		step = (n + maxCDFPoints - 1) / maxCDFPoints
	}
	var out []CDFPoint
	for i := step - 1; i < n; i += step {
		out = append(out, CDFPoint{Micros: sorted[i], Frac: float64(i+1) / float64(n)})
	}
	if last := out[len(out)-1]; last.Frac != 1 {
		out = append(out, CDFPoint{Micros: sorted[n-1], Frac: 1})
	}
	return out
}

// buildTimelines converts one cell's EW windows into per-PMO timelines.
// It returns the (bounded) timelines plus the real distinct-PMO count.
func buildTimelines(cell string, ews []obs.Window) ([]PMOTimeline, int) {
	var order []int64
	byPMO := make(map[int64][]Span)
	counts := make(map[int64]int)
	for _, w := range ews {
		if _, seen := byPMO[w.Arg]; !seen {
			order = append(order, w.Arg)
			byPMO[w.Arg] = nil
		}
		counts[w.Arg]++
		if len(byPMO[w.Arg]) < maxTimelineSpans {
			byPMO[w.Arg] = append(byPMO[w.Arg], Span{
				StartMicros: params.ToMicros(w.Start),
				EndMicros:   params.ToMicros(w.End),
			})
		}
	}
	total := len(order)
	if len(order) > maxTimelinePMOs {
		order = order[:maxTimelinePMOs]
	}
	var out []PMOTimeline
	for _, pmo := range order {
		tl := PMOTimeline{Cell: cell, PMO: pmo, Spans: byPMO[pmo]}
		if counts[pmo] > len(tl.Spans) {
			tl.TruncatedFrom = counts[pmo]
		}
		out = append(out, tl)
	}
	return out, total
}

// AttackReport correlates the attack layer's obs instants with exposure
// windows: dead-time samples against the TEW target (the attack surface
// of Section VII-A) and probe attempts/hits against open EW windows
// (attack-success observability — a probe can only succeed while a
// window is open).
type AttackReport struct {
	// DeadTimes counts dead-time samples; DeadStats summarizes them.
	DeadTimes int         `json:"deadTimes"`
	DeadStats WindowStats `json:"deadStats"`
	// AtLeastTEWPct is the share of dead times >= the TEW target — the
	// surface a TEW of that length still leaves reachable.
	AtLeastTEWPct float64 `json:"atLeastTEWPct"`
	// TEWTargetMicros is the target the surface was measured against.
	TEWTargetMicros float64 `json:"tewTargetMicros"`
	// Probes and ProbeHits count attack probes and successful ones;
	// HitsInWindow counts hits that landed inside an open EW window
	// (the model predicts all of them).
	Probes       int `json:"probes,omitempty"`
	ProbeHits    int `json:"probeHits,omitempty"`
	HitsInWindow int `json:"hitsInWindow,omitempty"`
	// ProbesInWindow counts all probes that landed inside open windows.
	ProbesInWindow int `json:"probesInWindow,omitempty"`
	// Windows is the EW window count seen alongside the probes.
	Windows int `json:"windows,omitempty"`
}

// analyzeAttack scans every cell for CatAttack instants. It returns nil
// when the experiment recorded none.
func analyzeAttack(cells []*obs.CellObs) *AttackReport {
	var dead []float64
	probes, hits, hitsIn, probesIn, windows := 0, 0, 0, 0, 0
	for _, c := range cells {
		if len(c.Events) == 0 {
			continue
		}
		ins := obs.Instants(c.Events)
		att := obs.FilterInstants(ins, obs.CatAttack, "")
		if len(att) == 0 {
			continue
		}
		ews := obs.FilterWindows(obs.Windows(c.Events), obs.CatExpo, "ew")
		windows += len(ews)
		for _, in := range att {
			switch in.Name {
			case "deadtime":
				dead = append(dead, params.ToMicros(uint64(in.Arg)))
			case "probe":
				probes++
				if inWindow(ews, in.TS) {
					probesIn++
				}
			case "probe-hit":
				hits++
				if inWindow(ews, in.TS) {
					hitsIn++
				}
			}
		}
	}
	if len(dead) == 0 && probes == 0 && hits == 0 {
		return nil
	}
	out := &AttackReport{
		DeadTimes:       len(dead),
		DeadStats:       windowStats(dead, 0),
		TEWTargetMicros: tewTargetMicros,
		Probes:          probes,
		ProbeHits:       hits,
		HitsInWindow:    hitsIn,
		ProbesInWindow:  probesIn,
		Windows:         windows,
	}
	if len(dead) > 0 {
		atLeast := 0
		for _, d := range dead {
			if d >= tewTargetMicros {
				atLeast++
			}
		}
		out.AtLeastTEWPct = 100 * float64(atLeast) / float64(len(dead))
	}
	return out
}

// inWindow reports whether ts falls inside any window (windows are
// sorted by start; half-open [Start, End)).
func inWindow(ws []obs.Window, ts uint64) bool {
	for _, w := range ws {
		if w.Start > ts {
			return false
		}
		if ts < w.End {
			return true
		}
	}
	return false
}
