package expo

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

func TestSingleWindow(t *testing.T) {
	tr := NewTracker()
	tr.EWOpen(1, 100)
	tr.EWClose(1, 400)
	st := tr.Collect(1000)
	if st.PMOs != 1 || st.EWCount != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AvgEW != 300 || st.MaxEW != 300 {
		t.Fatalf("avg/max = %f/%f", st.AvgEW, st.MaxEW)
	}
	if st.ER != 0.3 {
		t.Fatalf("ER = %f", st.ER)
	}
}

func TestRandomizationSplitsWindow(t *testing.T) {
	tr := NewTracker()
	tr.EWOpen(1, 0)
	tr.EWRandomized(1, 250)
	tr.EWClose(1, 400)
	st := tr.Collect(1000)
	if st.EWCount != 2 {
		t.Fatalf("count = %d, want 2 (randomization splits)", st.EWCount)
	}
	if st.MaxEW != 250 {
		t.Fatalf("max = %f", st.MaxEW)
	}
	// Total exposed time unchanged: 400 of 1000.
	if st.ER != 0.4 {
		t.Fatalf("ER = %f", st.ER)
	}
}

// TestRandomizationBeforeOpen: a machine's sweep randomizes at the
// global low-water mark, which may lie before the attach that opened the
// window. The window then closes and restarts where it opened: the
// randomization adds an empty window, not one that wraps below zero.
func TestRandomizationBeforeOpen(t *testing.T) {
	tr := NewTracker()
	tr.EWOpen(1, 1000)
	tr.EWRandomized(1, 600)
	tr.EWClose(1, 1500)
	st := tr.Collect(2000)
	if st.EWCount != 2 || st.MaxEW != 500 || st.AvgEW != 250 || st.ER != 0.25 {
		t.Fatalf("stats = %+v; want 2 windows of 0 and 500 cycles, ER 0.25", st)
	}
}

func TestTEWPerThread(t *testing.T) {
	tr := NewTracker()
	tr.EWOpen(1, 0)
	tr.TEWOpen(0, 1, 0)
	tr.TEWClose(0, 1, 50)
	tr.TEWOpen(1, 1, 100)
	tr.TEWClose(1, 1, 250)
	tr.EWClose(1, 300)
	st := tr.Collect(1000)
	if st.TEWCount != 2 {
		t.Fatalf("tew count = %d", st.TEWCount)
	}
	if st.AvgTEW != 100 {
		t.Fatalf("avg tew = %f", st.AvgTEW)
	}
	if st.MaxTEW != 150 {
		t.Fatalf("max tew = %f", st.MaxTEW)
	}
	if st.TER != 0.2 {
		t.Fatalf("TER = %f", st.TER)
	}
}

func TestFinishClosesOpenWindows(t *testing.T) {
	tr := NewTracker()
	tr.EWOpen(1, 0)
	tr.TEWOpen(0, 1, 100)
	tr.Finish(500)
	st := tr.Collect(500)
	if st.EWCount != 1 || st.TEWCount != 1 {
		t.Fatalf("finish missed windows: %+v", st)
	}
	if st.ER != 1.0 {
		t.Fatalf("ER = %f", st.ER)
	}
}

// TestFinishClosesInIDOrder pins the order of the close events Finish
// emits for windows still open at the end of a run with several PMOs
// and threads: the hardware track's EW ends come in PMO order, and each
// thread's TEW ends come in PMO order, whatever order the windows
// opened in.
func TestFinishClosesInIDOrder(t *testing.T) {
	tr := NewTracker()
	tr.Obs = obs.NewRecorder(0)
	for _, pmo := range []uint32{9, 2, 5} {
		tr.EWOpen(pmo, 10)
	}
	for _, h := range []struct {
		th  int
		pmo uint32
	}{{2, 5}, {0, 9}, {1, 2}, {0, 2}} {
		tr.TEWOpen(h.th, h.pmo, 20)
	}
	tr.Finish(100)
	ends := map[int][]int64{}
	for _, e := range tr.Obs.Events() {
		if e.Type == obs.AsyncEnd {
			ends[e.Thread] = append(ends[e.Thread], e.Arg)
		}
	}
	want := map[int][]int64{
		obs.HWThread: {2, 5, 9},
		0:            {tewArg(0, 2), tewArg(0, 9)},
		1:            {tewArg(1, 2)},
		2:            {tewArg(2, 5)},
	}
	if !reflect.DeepEqual(ends, want) {
		t.Fatalf("close events by track = %v, want %v", ends, want)
	}
	if st := tr.Collect(100); st.EWCount != 3 || st.TEWCount != 4 {
		t.Fatalf("finish closed %d EWs and %d TEWs, want 3 and 4", st.EWCount, st.TEWCount)
	}
}

func TestIdempotentOpensAndStrayCloses(t *testing.T) {
	tr := NewTracker()
	tr.EWOpen(1, 0)
	tr.EWOpen(1, 50) // ignored: already open
	tr.EWClose(1, 100)
	tr.EWClose(1, 200)      // stray: ignored
	tr.EWRandomized(2, 300) // PMO never opened: ignored
	tr.TEWClose(0, 1, 400)  // never opened: ignored
	st := tr.Collect(1000)
	if st.EWCount != 1 || st.AvgEW != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMultiplePMOsAveraged(t *testing.T) {
	tr := NewTracker()
	// PMO 1 exposed 100/1000; PMO 2 exposed 300/1000.
	tr.EWOpen(1, 0)
	tr.EWClose(1, 100)
	tr.EWOpen(2, 0)
	tr.EWClose(2, 300)
	st := tr.Collect(1000)
	if st.PMOs != 2 {
		t.Fatalf("pmos = %d", st.PMOs)
	}
	// ER averaged over PMOs: (0.1 + 0.3)/2.
	if st.ER != 0.2 {
		t.Fatalf("ER = %f", st.ER)
	}
	if st.AvgEW != 200 {
		t.Fatalf("avg EW = %f", st.AvgEW)
	}
}

func TestCollectZeroTotal(t *testing.T) {
	tr := NewTracker()
	tr.EWOpen(1, 0)
	tr.EWClose(1, 10)
	st := tr.Collect(0)
	if st.PMOs != 0 {
		t.Fatalf("zero total must return zero stats, got %+v", st)
	}
}

func TestStatsString(t *testing.T) {
	tr := NewTracker()
	tr.EWOpen(1, 0)
	tr.EWClose(1, 10)
	if s := tr.Collect(100).String(); s == "" {
		t.Fatal("empty string")
	}
}

// Property: for any sequence of window [open, close] pairs, the exposure
// rate never exceeds the combined fraction and the max is the largest gap.
func TestWindowProperty(t *testing.T) {
	f := func(lens []uint16) bool {
		tr := NewTracker()
		var now, sum, max uint64
		for _, l := range lens {
			d := uint64(l%1000) + 1
			tr.EWOpen(1, now)
			tr.EWClose(1, now+d)
			now += 2 * d
			sum += d
			if d > max {
				max = d
			}
		}
		if now == 0 {
			return true
		}
		st := tr.Collect(now)
		return st.MaxEW == float64(max) &&
			st.ER > 0 && st.ER <= 1 &&
			uint64(st.ER*float64(now)+0.5) == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
