package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/params"
)

// chromeEvent is one Chrome-trace / Perfetto JSON event. Field order is
// fixed by the struct so the exported bytes are deterministic.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	ID   *int64            `json:"id,omitempty"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the Chrome trace format, which
// both chrome://tracing and Perfetto load.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the cells' event streams as Chrome trace JSON
// (loadable in Perfetto / chrome://tracing). Each cell becomes one
// process (pid = enumeration index) and each simulated thread one track
// within it; timestamps are simulated cycles converted to microseconds,
// so the output is byte-identical across hosts and worker counts.
func WriteChromeTrace(w io.Writer, cells []CellTrace) error {
	return WriteChromeTraceWall(w, cells, "", nil)
}

// WallSpan is one wall-clock phase on the host-side track: a span when
// End > Start, an instant when they coincide. Offsets are relative to
// the track's origin (typically job submission).
type WallSpan struct {
	// Name is the phase label ("queued", "run", "serve").
	Name string
	// Start and End are wall-clock offsets from the track origin.
	Start, End time.Duration
}

// WriteChromeTraceWall writes the cells' simulated-cycle tracks plus,
// when spans are given, one extra process carrying the host wall-clock
// job lifecycle — so a single Perfetto view shows simulated time and
// real time side by side. The wall track is informational and
// host-dependent; the sim-cycle tracks keep their deterministic bytes
// (WriteChromeTrace is exactly this call with no wall track).
func WriteChromeTraceWall(w io.Writer, cells []CellTrace, wallTrack string, spans []WallSpan) error {
	var out chromeTrace
	out.DisplayTimeUnit = "ns"
	for pid, cell := range cells {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Cat: "__metadata", Ph: "M", Pid: pid,
			Args: map[string]string{"name": cell.Name},
		})
		threads := map[int]bool{}
		for _, e := range cell.Events {
			if !threads[e.Thread] {
				threads[e.Thread] = true
				name := fmt.Sprintf("t%d", e.Thread)
				if e.Thread == HWThread {
					name = "hw"
				}
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: "thread_name", Cat: "__metadata", Ph: "M",
					Pid: pid, Tid: e.Thread + 1,
					Args: map[string]string{"name": name},
				})
			}
			ce := chromeEvent{
				Name: e.Name,
				Cat:  e.Cat.String(),
				TS:   float64(e.TS) / params.CyclesPerMicro,
				Pid:  pid,
				Tid:  e.Thread + 1,
			}
			switch e.Type {
			case Begin:
				ce.Ph = "B"
			case End:
				ce.Ph = "E"
			case AsyncBegin:
				ce.Ph = "b"
				id := e.Arg
				ce.ID = &id
			case AsyncEnd:
				ce.Ph = "e"
				id := e.Arg
				ce.ID = &id
			case Instant:
				ce.Ph = "i"
				ce.S = "t"
			}
			if e.Type != AsyncBegin && e.Type != AsyncEnd {
				ce.Args = map[string]string{"arg": itoa64(e.Arg)}
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
	}
	if len(spans) > 0 {
		pid := len(cells)
		if wallTrack == "" {
			wallTrack = "wall-clock"
		}
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{
				Name: "process_name", Cat: "__metadata", Ph: "M", Pid: pid,
				Args: map[string]string{"name": wallTrack},
			},
			chromeEvent{
				Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: pid, Tid: 1,
				Args: map[string]string{"name": "host"},
			})
		for _, sp := range spans {
			start := float64(sp.Start.Nanoseconds()) / 1e3
			end := float64(sp.End.Nanoseconds()) / 1e3
			if sp.End <= sp.Start {
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: sp.Name, Cat: "wall", Ph: "i", TS: start, Pid: pid, Tid: 1, S: "t",
				})
				continue
			}
			out.TraceEvents = append(out.TraceEvents,
				chromeEvent{Name: sp.Name, Cat: "wall", Ph: "B", TS: start, Pid: pid, Tid: 1},
				chromeEvent{Name: sp.Name, Cat: "wall", Ph: "E", TS: end, Pid: pid, Tid: 1})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

func itoa64(v int64) string {
	if v < 0 {
		return "-" + itoa(uint64(-v))
	}
	return itoa(uint64(v))
}

// FormatMetrics renders a snapshot as an aligned two-column counter
// table followed by histogram summaries.
func FormatMetrics(s *Snapshot) string {
	if s == nil {
		return "(no metrics)\n"
	}
	var b strings.Builder
	width := 0
	for _, name := range s.Names() {
		if len(name) > width {
			width = len(name)
		}
	}
	for _, name := range s.Names() {
		fmt.Fprintf(&b, "  %-*s %12d\n", width, name, s.Counters[name])
	}
	for _, name := range s.HistNames() {
		h := s.Hists[name]
		fmt.Fprintf(&b, "  %s: n=%d mean=%.1f max=%d\n", name, h.Count, h.Mean(), h.Max)
	}
	return b.String()
}

// FormatRollup renders the counters named prefix/<name> as a plain-text
// flamegraph-style rollup: a root line with their total, then one line
// per name, heaviest first (ties by name), with its share of the total
// and a proportional bar. With prefix "sim/cycles" this is the
// per-Account rollup of one run's cycle budget.
func FormatRollup(s *Snapshot, prefix string) string {
	type line struct {
		name  string
		value uint64
	}
	var lines []line
	var total uint64
	for name, v := range s.Counters {
		if rest, ok := strings.CutPrefix(name, prefix+"/"); ok {
			lines = append(lines, line{rest, v})
			total += v
		}
	}
	if total == 0 {
		return fmt.Sprintf("  (no %q counters)\n", prefix)
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].value != lines[j].value {
			return lines[i].value > lines[j].value
		}
		return lines[i].name < lines[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "  %-28s %14d 100.0%% %s\n", prefix, total, bar(1, 40))
	for _, l := range lines {
		frac := float64(l.value) / float64(total)
		fmt.Fprintf(&b, "    %-26s %14d %5.1f%% %s\n", l.name, l.value, 100*frac, bar(frac, 40))
	}
	return b.String()
}

func bar(frac float64, width int) string {
	n := int(frac*float64(width) + 0.5)
	if n > width {
		n = width
	}
	if n < 0 {
		n = 0
	}
	return strings.Repeat("#", n)
}
