package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestNilTrackIsNoOp(t *testing.T) {
	var tr *Track
	tr.Span(3, 4, CatSim, "x", 0)
	tr.AsyncBegin(5, CatExpo, "x", 1)
	tr.AsyncEnd(6, CatExpo, "x", 1)
	tr.Instant(7, CatHW, "x", 0)
	var r *Recorder
	if r.Track(0) != nil {
		t.Fatal("nil recorder must hand out nil tracks")
	}
	if r.Events() != nil || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder must report empty")
	}
	if c := NewCellObs("c", nil, r); c.TraceEvents != 0 || c.TraceDropped != 0 || c.Events != nil {
		t.Fatalf("payload of a nil recorder = %+v, want no trace", c)
	}
}

func TestTrackRingEviction(t *testing.T) {
	r := NewRecorder(4)
	tr := r.Track(0)
	for i := 0; i < 10; i++ {
		tr.Instant(uint64(i), CatSim, "e", int64(i))
	}
	if tr.total != 10 {
		t.Fatalf("total = %d, want 10", tr.total)
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	// The ring keeps the most recent events in emit order.
	for i, e := range ev {
		if want := uint64(6 + i); e.TS != want || e.Seq != want {
			t.Fatalf("event %d = ts %d seq %d, want %d", i, e.TS, e.Seq, want)
		}
	}
}

func TestRecorderMergeOrdering(t *testing.T) {
	r := NewRecorder(0)
	hw := r.Track(HWThread)
	t1 := r.Track(1)
	t0 := r.Track(0)
	// Interleave emits across threads with shared cycles.
	t1.Instant(100, CatSim, "a", 0)
	t0.Instant(100, CatSim, "b", 0)
	hw.Instant(100, CatHW, "c", 0)
	t0.Instant(50, CatSim, "d", 0)
	t0.Instant(100, CatSim, "e", 0)
	ev := r.Events()
	got := make([]string, len(ev))
	for i, e := range ev {
		got[i] = fmt.Sprintf("%d/%d/%s", e.TS, e.Thread, e.Name)
	}
	// Sorted by TS, then thread (hw = -1 first), then per-thread seq.
	want := []string{"50/0/d", "100/-1/c", "100/0/b", "100/0/e", "100/1/a"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged order = %v, want %v", got, want)
	}
	if r.Total() != 5 || r.Dropped() != 0 {
		t.Fatalf("total=%d dropped=%d", r.Total(), r.Dropped())
	}
}

func TestEventString(t *testing.T) {
	e := Event{TS: 42, Thread: HWThread, Type: Instant, Cat: CatHW, Name: "sweep", Arg: 7}
	s := e.String()
	for _, want := range []string{"42", "hw", "terphw", "instant", "sweep", "7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Event.String() = %q missing %q", s, want)
		}
	}
}

func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1024} {
		h.Observe(v)
	}
	if h.Count != 8 || h.Sum != 1049 || h.Max != 1024 {
		t.Fatalf("count=%d sum=%d max=%d", h.Count, h.Sum, h.Max)
	}
	// bit-length buckets: 0→b0, 1→b1, {2,3}→b2, {4,7}→b3, 8→b4, 1024→b11
	want := []uint64{1, 1, 2, 2, 1, 0, 0, 0, 0, 0, 0, 1}
	if fmt.Sprint(h.Buckets) != fmt.Sprint(want) {
		t.Fatalf("buckets = %v, want %v", h.Buckets, want)
	}
	if got := h.Mean(); got != 1049.0/8 {
		t.Fatalf("mean = %v", got)
	}
	var empty Hist
	if empty.Mean() != 0 {
		t.Fatal("empty hist mean must be 0")
	}
}

func TestHistMerge(t *testing.T) {
	var a, b Hist
	a.Observe(3)
	b.Observe(100)
	b.Observe(0)
	a.Merge(&b)
	if a.Count != 3 || a.Sum != 103 || a.Max != 100 {
		t.Fatalf("merged count=%d sum=%d max=%d", a.Count, a.Sum, a.Max)
	}
	var c Hist
	c.Observe(3)
	c.Observe(100)
	c.Observe(0)
	if fmt.Sprint(a.Buckets) != fmt.Sprint(c.Buckets) {
		t.Fatalf("merge buckets %v != direct %v", a.Buckets, c.Buckets)
	}
}

func TestSnapshotAddSkipsZero(t *testing.T) {
	s := NewSnapshot()
	s.Add("a", 0)
	if len(s.Counters) != 0 {
		t.Fatal("Add(0) must not materialize a counter")
	}
	s.Add("a", 2)
	s.Add("a", 3)
	if s.Get("a") != 5 || s.Get("missing") != 0 {
		t.Fatalf("a=%d missing=%d", s.Get("a"), s.Get("missing"))
	}
}

func TestSnapshotMergeDeterministicJSON(t *testing.T) {
	build := func(order []int) *Snapshot {
		total := NewSnapshot()
		parts := []*Snapshot{NewSnapshot(), NewSnapshot(), NewSnapshot()}
		parts[0].Add("x/a", 1)
		parts[0].Hist("h").Observe(4)
		parts[1].Add("x/b", 2)
		parts[1].Add("x/a", 10)
		parts[2].Hist("h").Observe(9)
		for _, i := range order {
			total.Merge(parts[i])
		}
		return total
	}
	a, _ := json.Marshal(build([]int{0, 1, 2}))
	b, _ := json.Marshal(build([]int{2, 0, 1}))
	if !bytes.Equal(a, b) {
		t.Fatalf("merge order changed JSON:\n%s\n%s", a, b)
	}
	s := build([]int{0, 1, 2})
	if got := fmt.Sprint(s.Names()); got != "[x/a x/b]" {
		t.Fatalf("Names() = %s", got)
	}
	if got := fmt.Sprint(s.HistNames()); got != "[h]" {
		t.Fatalf("HistNames() = %s", got)
	}
	s.Merge(nil) // must not panic
}

func TestFormatMetrics(t *testing.T) {
	if got := FormatMetrics(nil); got != "(no metrics)\n" {
		t.Fatalf("nil metrics = %q", got)
	}
	s := NewSnapshot()
	s.Add("sim/cycles/base", 100)
	s.Hist("nvm/occupancy").Observe(8)
	out := FormatMetrics(s)
	if !strings.Contains(out, "sim/cycles/base") || !strings.Contains(out, "100") {
		t.Fatalf("missing counter row:\n%s", out)
	}
	if !strings.Contains(out, "nvm/occupancy") || !strings.Contains(out, "n=1") {
		t.Fatalf("missing hist row:\n%s", out)
	}
}

func TestFormatRollup(t *testing.T) {
	s := NewSnapshot()
	s.Add("sim/cycles/base", 60)
	s.Add("sim/cycles/attach", 30)
	s.Add("sim/cycles/tlb", 10)
	s.Add("other/thing", 999)
	out := FormatRollup(s, "sim/cycles")
	if strings.Contains(out, "other") {
		t.Fatalf("rollup leaked foreign prefix:\n%s", out)
	}
	if !strings.Contains(out, "100.0%") {
		t.Fatalf("missing root line:\n%s", out)
	}
	// Heaviest child first.
	bi, ai := strings.Index(out, "base"), strings.Index(out, "attach")
	if bi < 0 || ai < 0 || bi > ai {
		t.Fatalf("children not weight-sorted:\n%s", out)
	}
	if !strings.Contains(out, "60.0%") || !strings.Contains(out, "30.0%") {
		t.Fatalf("missing percentages:\n%s", out)
	}
	if got := FormatRollup(NewSnapshot(), "sim/cycles"); !strings.Contains(got, "no") {
		t.Fatalf("empty rollup = %q", got)
	}
}

// TestChromeTraceSchema is the acceptance-criteria schema test: the
// exported document must be valid Chrome trace JSON (the format Perfetto
// and chrome://tracing load) — required keys present, phases in the
// allowed set, sync spans balanced per track, async spans paired by id.
func TestChromeTraceSchema(t *testing.T) {
	r := NewRecorder(0)
	hw := r.Track(HWThread)
	t0 := r.Track(0)
	t0.Span(10, 20, CatCore, "attach-syscall", 3)
	t0.Instant(12, CatPaging, "tlb-walk", 0x40)
	hw.AsyncBegin(5, CatExpo, "ew", 3)
	t0.AsyncBegin(11, CatExpo, "tew", 3|1<<32)
	t0.AsyncEnd(25, CatExpo, "tew", 3|1<<32)
	hw.AsyncEnd(30, CatExpo, "ew", 3)
	hw.Instant(30, CatHW, "sweep-detach", 3)

	var buf bytes.Buffer
	cells := []CellTrace{{Name: "whisper/echo", Events: r.Events()}}
	if err := WriteChromeTrace(&buf, cells); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	allowed := map[string]bool{"B": true, "E": true, "b": true, "e": true, "i": true, "M": true}
	depth := map[string]int{} // per (pid,tid) sync-span nesting
	async := map[string]int{} // per (name,id) open async spans
	sawProcName, sawThreadName := false, false
	lastTS := map[string]float64{}
	for i, e := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, e)
			}
		}
		ph := e["ph"].(string)
		if !allowed[ph] {
			t.Fatalf("event %d has phase %q outside allowed set", i, ph)
		}
		track := fmt.Sprint(e["pid"], "/", e["tid"])
		switch ph {
		case "M":
			switch e["name"] {
			case "process_name":
				sawProcName = true
			case "thread_name":
				sawThreadName = true
			}
			continue
		case "B":
			depth[track]++
		case "E":
			depth[track]--
			if depth[track] < 0 {
				t.Fatalf("event %d: E without B on track %s", i, track)
			}
		case "b":
			async[fmt.Sprint(e["name"], "#", e["id"])]++
		case "e":
			k := fmt.Sprint(e["name"], "#", e["id"])
			async[k]--
			if async[k] < 0 {
				t.Fatalf("event %d: async end without begin for %s", i, k)
			}
		}
		ts, ok := e["ts"].(float64)
		if !ok {
			t.Fatalf("event %d missing numeric ts", i)
		}
		if ts < lastTS[track] {
			t.Fatalf("event %d: ts %v < previous %v on track %s", i, ts, lastTS[track], track)
		}
		lastTS[track] = ts
	}
	for track, d := range depth {
		if d != 0 {
			t.Fatalf("track %s has %d unbalanced sync spans", track, d)
		}
	}
	for k, n := range async {
		if n != 0 {
			t.Fatalf("async span %s has %d unmatched begins", k, n)
		}
	}
	if !sawProcName || !sawThreadName {
		t.Fatal("missing process_name/thread_name metadata events")
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	build := func() []byte {
		r := NewRecorder(0)
		r.Track(1).Instant(7, CatSim, "a", 1)
		r.Track(HWThread).Instant(7, CatHW, "b", 2)
		r.Track(0).Span(1, 9, CatCore, "c", 3)
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, []CellTrace{{Name: "x", Events: r.Events()}}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := build(), build(); !bytes.Equal(a, b) {
		t.Fatalf("trace export not deterministic:\n%s\n%s", a, b)
	}
}
