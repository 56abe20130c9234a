package obs

import (
	"reflect"
	"testing"
)

func TestWindowsPairsSyncSpans(t *testing.T) {
	r := NewRecorder(0)
	tr := r.Track(0)
	// Nested sync spans: outer [10,50], inner [20,30].
	tr.Span(10, 50, CatSim, "outer", 1)
	tr.Span(20, 30, CatSim, "inner", 2)

	ws := Windows(r.Events())
	want := []Window{
		{Cat: CatSim, Name: "outer", Thread: 0, Arg: 1, Start: 10, End: 50},
		{Cat: CatSim, Name: "inner", Thread: 0, Arg: 2, Start: 20, End: 30},
	}
	if !reflect.DeepEqual(ws, want) {
		t.Fatalf("windows = %+v, want %+v", ws, want)
	}
	if got := ws[0].Cycles(); got != 40 {
		t.Fatalf("Cycles() = %d, want 40", got)
	}
}

func TestWindowsPairsAsyncByKeyAndKeepsBeginThread(t *testing.T) {
	r := NewRecorder(0)
	hw := r.Track(HWThread)
	// Two windows of the same key overlap FIFO; the end for arg=7 comes
	// from a different track but still pairs by (cat, name, arg).
	hw.AsyncBegin(100, CatExpo, "ew", 7)
	hw.AsyncBegin(150, CatExpo, "ew", 8)
	r.Track(3).AsyncEnd(200, CatExpo, "ew", 7)
	hw.AsyncEnd(300, CatExpo, "ew", 8)

	ws := Windows(r.Events())
	want := []Window{
		{Cat: CatExpo, Name: "ew", Thread: HWThread, Arg: 7, Start: 100, End: 200},
		{Cat: CatExpo, Name: "ew", Thread: HWThread, Arg: 8, Start: 150, End: 300},
	}
	if !reflect.DeepEqual(ws, want) {
		t.Fatalf("windows = %+v, want %+v", ws, want)
	}
}

func TestWindowsDropsUnclosedSpans(t *testing.T) {
	// A truncated stream, as a ring that evicted events leaves it.
	ws := Windows([]Event{
		{TS: 5, Type: End, Cat: CatSim, Name: "evicted-begin"}, // no matching begin
		{TS: 10, Type: Begin, Cat: CatSim, Name: "open"},
		{TS: 15, Type: End, Cat: CatSim, Name: "stray-end-wrong-order"}, // closes "open"
		{TS: 20, Type: AsyncBegin, Cat: CatExpo, Name: "ew", Arg: 1},
		{TS: 30, Type: AsyncEnd, Cat: CatExpo, Name: "never-begun", Arg: 2}, // no matching begin
	})
	if len(ws) != 1 || ws[0].Name != "open" {
		t.Fatalf("windows = %+v, want only the closed sync span", ws)
	}
}

func TestInstantsAndFilters(t *testing.T) {
	r := NewRecorder(0)
	tr := r.Track(2)
	tr.Instant(5, CatAttack, "probe", 1)
	tr.Span(6, 7, CatSim, "span", 0)
	tr.Instant(8, CatAttack, "deadtime", 42)

	ins := Instants(r.Events())
	if len(ins) != 2 {
		t.Fatalf("instants = %+v, want 2", ins)
	}
	if ins[0].Name != "probe" || ins[0].TS != 5 || ins[0].Thread != 2 {
		t.Fatalf("first instant = %+v", ins[0])
	}
	if got := FilterInstants(ins, CatAttack, "deadtime"); len(got) != 1 || got[0].Arg != 42 {
		t.Fatalf("FilterInstants(deadtime) = %+v", got)
	}
	ws := Windows(r.Events())
	if got := FilterWindows(ws, CatSim, "span"); len(got) != 1 {
		t.Fatalf("FilterWindows(span) = %+v", got)
	}
	if got := FilterWindows(ws, CatExpo, ""); len(got) != 0 {
		t.Fatalf("FilterWindows(expo) = %+v, want none", got)
	}
}

func TestTrackDroppedCountsRingOverflow(t *testing.T) {
	r := NewRecorder(4)
	tr := r.Track(0)
	for i := 0; i < 10; i++ {
		tr.Instant(uint64(i), CatSim, "e", int64(i))
	}
	if got := tr.dropped; got != 6 {
		t.Fatalf("track dropped = %d, want 6", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Recorder.Dropped() = %d, want 6", got)
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Recorder.Total() = %d, want 10", got)
	}
}
