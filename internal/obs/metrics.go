package obs

import (
	"math/bits"
	"sort"
)

// Hist is a power-of-two-bucketed histogram of uint64 samples: bucket i
// counts samples whose bit length is i (bucket 0 counts zeros, bucket 1
// counts 1, bucket 2 counts 2-3, bucket 3 counts 4-7, ...). Buckets are
// trimmed to the highest nonzero index so the JSON encoding is compact
// and stable.
type Hist struct {
	// Count, Sum and Max summarize all samples.
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Max   uint64 `json:"max"`
	// Buckets holds the per-bit-length counts.
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Observe records one sample.
func (h *Hist) Observe(v uint64) {
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	b := bits.Len64(v)
	for len(h.Buckets) <= b {
		h.Buckets = append(h.Buckets, 0)
	}
	h.Buckets[b]++
}

// Mean returns the average sample, or 0 with no samples.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Merge adds o's samples into h.
func (h *Hist) Merge(o *Hist) {
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for len(h.Buckets) < len(o.Buckets) {
		h.Buckets = append(h.Buckets, 0)
	}
	for i, n := range o.Buckets {
		h.Buckets[i] += n
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// Snapshot is a deterministic set of named counters and histograms.
// Names are slash-separated paths (e.g. "sim/cycles/attach"); the JSON
// encoding sorts map keys, so two snapshots built from the same
// simulation marshal to identical bytes.
type Snapshot struct {
	// Counters maps metric name to value; zero-valued counters are
	// omitted (Add skips them) to keep cell rows compact.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Hists maps histogram name to its buckets.
	Hists map[string]*Hist `json:"hists,omitempty"`
}

// NewSnapshot creates an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{Counters: make(map[string]uint64)}
}

// Add adds n to the named counter (no-op for n == 0, so absent and
// never-incremented counters are indistinguishable).
func (s *Snapshot) Add(name string, n uint64) {
	if n == 0 {
		return
	}
	if s.Counters == nil {
		s.Counters = make(map[string]uint64)
	}
	s.Counters[name] += n
}

// Get returns the named counter's value (0 when absent).
func (s *Snapshot) Get(name string) uint64 { return s.Counters[name] }

// Hist returns the named histogram, creating it on first use.
func (s *Snapshot) Hist(name string) *Hist {
	if s.Hists == nil {
		s.Hists = make(map[string]*Hist)
	}
	h := s.Hists[name]
	if h == nil {
		h = &Hist{}
		s.Hists[name] = h
	}
	return h
}

// Merge folds o into s (counter sums, histogram merges). Merging cells
// in enumeration order yields the same totals at any worker count
// because every operation is commutative and associative on integers.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	for k, v := range o.Counters {
		s.Add(k, v)
	}
	for k, h := range o.Hists {
		s.Hist(k).Merge(h)
	}
}

// Names returns the sorted counter names.
func (s *Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// HistNames returns the sorted histogram names.
func (s *Snapshot) HistNames() []string {
	names := make([]string, 0, len(s.Hists))
	for k := range s.Hists {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// CellObs is one experiment cell's observability payload: its metrics
// snapshot and (when tracing) its retained event stream. Events are
// excluded from the Grid JSON — traces are exported separately via
// WriteChromeTrace — but TraceEvents records how many were observed.
type CellObs struct {
	// Cell is the cell's display name (Cell.Name()).
	Cell string `json:"cell"`
	// Metrics is the cell's counter/histogram snapshot (nil when
	// metrics collection was off).
	Metrics *Snapshot `json:"metrics,omitempty"`
	// TraceEvents and TraceDropped count observed and evicted trace
	// events (zero when tracing was off).
	TraceEvents  uint64 `json:"traceEvents,omitempty"`
	TraceDropped uint64 `json:"traceDropped,omitempty"`
	// Events is the retained trace (not marshaled with the Grid).
	Events []Event `json:"-"`
}

// GridObs is one experiment's observability payload: one entry per
// simulated cell in enumeration order, plus the deterministic merge of
// every cell's metrics. Runs produce it, the wire carries it, and the
// report layer and regression gates read it.
type GridObs struct {
	// Cells holds each cell's snapshot in enumeration order.
	Cells []*CellObs `json:"cells"`
	// Totals merges all cell metrics (nil when metrics were off).
	Totals *Snapshot `json:"totals,omitempty"`
}

// NewGridObs wraps the cells; with metrics on it also merges their
// snapshots into Totals in enumeration order.
func NewGridObs(cells []*CellObs, metrics bool) *GridObs {
	g := &GridObs{Cells: cells}
	if metrics {
		g.Totals = NewSnapshot()
		for _, c := range cells {
			g.Totals.Merge(c.Metrics)
		}
	}
	return g
}

// CellTrace names one cell's event stream for the trace exporters.
type CellTrace struct {
	// Name is the cell's display name.
	Name string
	// Events is the merged deterministic event stream.
	Events []Event
}
