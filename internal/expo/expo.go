// Package expo measures exposure: the central security metric of TERP
// (Definition 5). It tracks process-level exposure windows (EW — time a
// PMO is mapped at one location) and thread exposure windows (TEW — time
// one thread holds access permission), and computes the statistics the
// paper reports in Tables III and IV: average and maximum EW, exposure
// rate ER = Time(exposed)/Time(all), average TEW and thread exposure rate
// TER. A randomization ends the current EW and starts a new one, because
// the location learned by an attacker becomes useless (Theorem 6).
//
// Per-PMO state lives in slices indexed by PMO ID, so summaries and the
// end-of-run closes walk the PMOs in ID order and come out the same on
// every run.
package expo

import (
	"fmt"

	"repro/internal/obs"
)

// Series accumulates window lengths without storing each one.
type Series struct {
	// Count is the number of closed windows.
	Count uint64
	// Sum is the total of all window lengths in cycles.
	Sum uint64
	// Max is the longest window observed.
	Max uint64
}

func (s *Series) add(n uint64) {
	s.Count++
	s.Sum += n
	if n > s.Max {
		s.Max = n
	}
}

// Avg returns the mean window length in cycles.
func (s *Series) Avg() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// window is one PMO's open window: its start, meaningful while open.
type window struct {
	start uint64
	open  bool
}

// Tracker records exposure windows for every PMO and thread of one run.
type Tracker struct {
	ews     []Series   // closed EWs by PMO; Count 0 = never exposed
	ewOpen  []window   // by PMO
	tews    []Series   // closed TEWs by PMO
	tewOpen [][]window // by thread, then PMO

	// Obs, when set, records every window transition as async span
	// events: EWs on the hardware track, TEWs on the owning thread's
	// track. Async spans may overlap, which Chrome sync spans cannot.
	Obs *obs.Recorder
}

// tewArg pairs the async begin/end of one thread's hold on one PMO; the
// thread is folded into the id because two threads may hold the same PMO
// concurrently.
func tewArg(th int, pmo uint32) int64 {
	return int64(pmo) | int64(th+1)<<32
}

// NewTracker creates an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// slot returns &(*s)[i], growing *s so that index i exists.
func slot[T any](s *[]T, i int) *T {
	for i >= len(*s) {
		var zero T
		*s = append(*s, zero)
	}
	return &(*s)[i]
}

// EWOpen records a real attach of the PMO at time now.
func (t *Tracker) EWOpen(pmo uint32, now uint64) {
	w := slot(&t.ewOpen, int(pmo))
	if w.open {
		return // already open; idempotent
	}
	*w = window{now, true}
	t.Obs.Track(obs.HWThread).AsyncBegin(now, obs.CatExpo, "ew", int64(pmo))
}

// EWClose records a real detach of the PMO at time now.
func (t *Tracker) EWClose(pmo uint32, now uint64) {
	w := slot(&t.ewOpen, int(pmo))
	if !w.open {
		return
	}
	w.open = false
	slot(&t.ews, int(pmo)).add(now - w.start)
	t.Obs.Track(obs.HWThread).AsyncEnd(now, obs.CatExpo, "ew", int64(pmo))
}

// EWRandomized records a space-layout randomization of an attached PMO:
// the current window closes (the old location is dead) and a new one
// opens immediately at the new location.
func (t *Tracker) EWRandomized(pmo uint32, now uint64) {
	w := slot(&t.ewOpen, int(pmo))
	if !w.open {
		return
	}
	slot(&t.ews, int(pmo)).add(now - w.start)
	w.start = now
	// The window restarts at the new location: one async span ends and
	// another begins at the same cycle.
	hw := t.Obs.Track(obs.HWThread)
	hw.AsyncEnd(now, obs.CatExpo, "ew", int64(pmo))
	hw.AsyncBegin(now, obs.CatExpo, "ew", int64(pmo))
}

// TEWOpen records thread th gaining access permission to the PMO.
func (t *Tracker) TEWOpen(th int, pmo uint32, now uint64) {
	w := slot(slot(&t.tewOpen, th), int(pmo))
	if w.open {
		return
	}
	*w = window{now, true}
	t.Obs.Track(th).AsyncBegin(now, obs.CatExpo, "tew", tewArg(th, pmo))
}

// TEWClose records thread th losing access permission to the PMO.
func (t *Tracker) TEWClose(th int, pmo uint32, now uint64) {
	w := slot(slot(&t.tewOpen, th), int(pmo))
	if !w.open {
		return
	}
	w.open = false
	slot(&t.tews, int(pmo)).add(now - w.start)
	t.Obs.Track(th).AsyncEnd(now, obs.CatExpo, "tew", tewArg(th, pmo))
}

// Finish closes every window still open at end-of-run time now: EWs in
// PMO order, then TEWs by thread and PMO, so the close events come in
// the same order on every run.
func (t *Tracker) Finish(now uint64) {
	for pmo := range t.ewOpen {
		t.EWClose(uint32(pmo), now)
	}
	for th, open := range t.tewOpen {
		for pmo := range open {
			t.TEWClose(th, uint32(pmo), now)
		}
	}
}

// Counts returns the number of closed EW and TEW windows so far (the
// metrics layer reports them as counters without needing a total time).
func (t *Tracker) Counts() (ew, tew uint64) {
	for _, s := range t.ews {
		ew += s.Count
	}
	for _, s := range t.tews {
		tew += s.Count
	}
	return
}

// Stats is the per-run exposure summary reported in Tables III and IV.
type Stats struct {
	// PMOs is the number of PMOs that were ever exposed.
	PMOs int
	// AvgEW and MaxEW are the mean and maximum exposure window lengths
	// in cycles, averaged over PMOs as in the paper.
	AvgEW, MaxEW float64
	// ER is the exposure rate: sum of EWs divided by total time,
	// averaged over PMOs.
	ER float64
	// AvgTEW and MaxTEW are thread exposure window statistics.
	AvgTEW, MaxTEW float64
	// TER is the thread exposure rate.
	TER float64
	// EWCount and TEWCount are the numbers of closed windows.
	EWCount, TEWCount uint64
}

// String renders the stats in a Table III-style row fragment.
func (s Stats) String() string {
	return fmt.Sprintf("EW avg/max %.1f/%.1f ER %.1f%% TEW %.2f TER %.1f%%",
		s.AvgEW, s.MaxEW, s.ER*100, s.AvgTEW, s.TER*100)
}

// Collect computes the exposure summary for a run of the given total
// duration in cycles. Call Finish first. Per the paper, EW/ER values are
// averaged over all PMOs ever exposed, and ER/TER divide exposed time by
// total time. PMOs are accumulated in ID order, so the float sums are
// reproducible bit for bit.
func (t *Tracker) Collect(total uint64) Stats {
	var st Stats
	if total == 0 {
		return st
	}
	for _, s := range t.ews {
		if s.Count == 0 {
			continue
		}
		st.PMOs++
		st.AvgEW += s.Avg()
		if float64(s.Max) > st.MaxEW {
			st.MaxEW = float64(s.Max)
		}
		st.ER += float64(s.Sum) / float64(total)
		st.EWCount += s.Count
	}
	if st.PMOs > 0 {
		st.AvgEW /= float64(st.PMOs)
		st.ER /= float64(st.PMOs)
	}
	n := 0
	for _, s := range t.tews {
		if s.Count == 0 {
			continue
		}
		n++
		st.AvgTEW += s.Avg()
		if float64(s.Max) > st.MaxTEW {
			st.MaxTEW = float64(s.Max)
		}
		st.TER += float64(s.Sum) / float64(total)
		st.TEWCount += s.Count
	}
	if n > 0 {
		st.AvgTEW /= float64(n)
		st.TER /= float64(n)
	}
	return st
}
