package report

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Ratio is a float64 that is safe to marshal: encoding/json errors on
// NaN and ±Inf, and sim.Accounts deliberately returns NaN from
// Overhead/Fraction when Base == 0 (a miscredited run must not fold
// silently into rollups). Ratio preserves that sentinel as JSON null so
// export paths never crash on it and readers can tell "undefined" from
// "zero".
type Ratio float64

// MarshalJSON renders NaN and ±Inf as null.
func (r Ratio) MarshalJSON() ([]byte, error) {
	f := float64(r)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(f)
}

// UnmarshalJSON accepts null as NaN.
func (r *Ratio) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*r = Ratio(math.NaN())
		return nil
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(string(data)), 64)
	if err != nil {
		return err
	}
	*r = Ratio(f)
	return nil
}

// Valid reports whether the ratio is a defined number.
func (r Ratio) Valid() bool {
	f := float64(r)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// OverheadRow is one configuration's cycle-account breakdown — the
// paper's base/attach/detach/rand/cond/other component accounts summed
// over the label's cells, with each protection component as a fraction
// of base time (the stacked bars of Figures 9-11).
type OverheadRow struct {
	// Label is the configuration; Cells how many cells contributed.
	Label string `json:"label"`
	Cells int    `json:"cells"`
	// Base..Other are cycles per component account.
	Base   uint64 `json:"base"`
	Attach uint64 `json:"attach"`
	Detach uint64 `json:"detach"`
	Rand   uint64 `json:"rand"`
	Cond   uint64 `json:"cond"`
	Other  uint64 `json:"other"`
	// Overhead is (total-base)/base; the component fractions divide by
	// base. All carry sim.Accounts' NaN sentinel as null when Base == 0.
	Overhead   Ratio `json:"overhead"`
	AttachFrac Ratio `json:"attachFrac"`
	DetachFrac Ratio `json:"detachFrac"`
	RandFrac   Ratio `json:"randFrac"`
	CondFrac   Ratio `json:"condFrac"`
	OtherFrac  Ratio `json:"otherFrac"`
}

// OverheadReport is one experiment's cycle-overhead breakdown.
type OverheadReport struct {
	// Rows holds one entry per configuration label in first-seen order,
	// then a "total" row over all of them.
	Rows []OverheadRow `json:"rows"`
}

// accountsOf rebuilds a sim.Accounts from a snapshot's "sim/cycles/*"
// counters.
func accountsOf(s *obs.Snapshot) sim.Accounts {
	var a sim.Accounts
	if s == nil {
		return a
	}
	for acct := sim.Base; acct <= sim.Other; acct++ {
		a.Add(acct, s.Get("sim/cycles/"+acct.String()))
	}
	return a
}

// rowOf folds an Accounts into a row, routing the NaN sentinel through
// Ratio instead of letting it reach encoding/json.
func rowOf(label string, cells int, a sim.Accounts) OverheadRow {
	return OverheadRow{
		Label:  label,
		Cells:  cells,
		Base:   a[sim.Base],
		Attach: a[sim.Attach],
		Detach: a[sim.Detach],
		Rand:   a[sim.Rand],
		Cond:   a[sim.Cond],
		Other:  a[sim.Other],

		Overhead:   Ratio(a.Overhead()),
		AttachFrac: Ratio(a.Fraction(sim.Attach)),
		DetachFrac: Ratio(a.Fraction(sim.Detach)),
		RandFrac:   Ratio(a.Fraction(sim.Rand)),
		CondFrac:   Ratio(a.Fraction(sim.Cond)),
		OtherFrac:  Ratio(a.Fraction(sim.Other)),
	}
}

// analyzeOverhead builds the component-account breakdown from per-cell
// metrics, grouped by configuration label in first-seen order. It
// returns nil when no cell carries cycle counters.
func analyzeOverhead(cells []*obs.CellObs) *OverheadReport {
	type acc struct {
		cells int
		a     sim.Accounts
	}
	var order []string
	groups := make(map[string]*acc)
	var total sim.Accounts
	counted := 0
	for _, c := range cells {
		a := accountsOf(c.Metrics)
		if a.Total() == 0 {
			continue // no cycle counters (metrics off, or a crash cell)
		}
		label := cellLabel(c.Cell)
		g := groups[label]
		if g == nil {
			g = &acc{}
			groups[label] = g
			order = append(order, label)
		}
		g.cells++
		g.a.Merge(&a)
		total.Merge(&a)
		counted++
	}
	if len(order) == 0 {
		return nil
	}
	out := &OverheadReport{}
	for _, label := range order {
		g := groups[label]
		out.Rows = append(out.Rows, rowOf(label, g.cells, g.a))
	}
	out.Rows = append(out.Rows, rowOf("total", counted, total))
	return out
}
