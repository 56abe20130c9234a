// Package crash is the fault-injection subsystem: it drives a workload
// over the persist-buffer model of internal/nvm, enumerates crash points
// at persist events (fences, every Nth persist, or a seeded-random
// sample), materializes the durable image a power failure at each point
// would leave — optionally dropping an adversarial subset of
// flushed-but-unfenced lines to model relaxed persist ordering — and
// verifies that recovery from every image restores all invariants: the
// undo log truncates, the PMO allocator stays consistent, and the
// workload's own durable structures audit clean.
//
// Everything is deterministic: crash points are chosen from the seeded
// event stream, adversarial drops are seeded per (run seed, event index),
// and no wall-clock time is consulted, so a spec always yields the same
// report.
package crash

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/nvm"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/whisper"
)

// Policy selects which persist events become crash points.
type Policy string

// Crash-point enumeration policies.
const (
	// FencePolicy crashes at fence events (power fails just before the
	// drain takes effect).
	FencePolicy Policy = "fence"
	// NthPolicy crashes at every Nth persist event (flushes and fences).
	NthPolicy Policy = "nth"
	// RandomPolicy crashes at a seeded-random sample of persist events.
	RandomPolicy Policy = "random"
)

// Spec describes one deterministic fault-injection run.
type Spec struct {
	// Workload names a WHISPER workload or "txnpairs".
	Workload string
	// Ops is the number of operations the instrumented run executes.
	Ops int
	// Seed seeds the workload stream, the random crash-point sample, and
	// the adversarial line drops.
	Seed int64
	// Policy selects candidate events; Every thins fence/nth candidates
	// to every Every-th one (0 means every one).
	Policy Policy
	Every  int
	// Points caps how many candidates are injected (0 means all).
	Points int
	// Adversarial also drops a seeded subset of flushed-but-unfenced
	// lines from each image (relaxed persist ordering).
	Adversarial bool
	// CrossCheck verifies every sampled image against the exhaustive
	// crash-state enumerator: whatever the policy and the adversary
	// choose, the image must be one nvm.ForEachCrashImage materializes
	// at the same instant. Points whose in-flight writeback set exceeds
	// the enumeration cap are skipped (and counted), not failed.
	CrossCheck bool
}

// PointResult records one injected crash and its verification.
type PointResult struct {
	// Event is the global persist-event ordinal the crash hit, of Kind
	// "flush" or "fence".
	Event uint64 `json:"event"`
	Kind  string `json:"kind"`
	// Dropped is how many flushed-but-unfenced lines the adversary
	// discarded from the image.
	Dropped int `json:"dropped"`
	// Undone is the number of undo records recovery rolled back.
	Undone int `json:"undone"`
	// Checked reports that the image's membership in the exhaustive
	// enumeration was verified (CrossCheck specs only; false when the
	// point was skipped at the enumeration cap).
	Checked bool `json:"checked,omitempty"`
	// Err is the verification failure, empty when the image recovered
	// cleanly with all invariants intact.
	Err string `json:"err,omitempty"`
}

// Report is the outcome of a fault-injection run.
type Report struct {
	Workload    string `json:"workload"`
	Policy      Policy `json:"policy"`
	Adversarial bool   `json:"adversarial"`
	Ops         int    `json:"ops"`
	// Events and Fences count the full instrumented run's persist
	// events; Candidates is how many matched the policy before Points
	// capped them.
	Events     uint64        `json:"events"`
	Fences     uint64        `json:"fences"`
	Candidates int           `json:"candidates"`
	Points     []PointResult `json:"points"`
	// Failures counts points whose verification failed.
	Failures int `json:"failures"`
	// Undone sums rolled-back records over all points.
	Undone int `json:"undone"`
	// CrossChecked and CrossSkipped count points whose image was checked
	// against the exhaustive enumeration, and points skipped because the
	// in-flight writeback set exceeded the enumeration cap.
	CrossChecked int `json:"crossChecked,omitempty"`
	CrossSkipped int `json:"crossSkipped,omitempty"`
}

// makeWorkload builds the named workload; every one must be Recoverable.
func makeWorkload(name string) (whisper.Recoverable, int, uint64, error) {
	if name == "txnpairs" {
		return NewTxnPairs(), 16, 1 << 24, nil
	}
	mk, err := whisper.ByName(name)
	if err != nil {
		return nil, 0, 0, err
	}
	w, ok := mk().(whisper.Recoverable)
	if !ok {
		return nil, 0, 0, fmt.Errorf("crash: workload %q is not recoverable", name)
	}
	return w, whisper.LogCapacity, 2 << 30, nil
}

// instrumented runs the spec's workload over a persist buffer, invoking
// hook at every persist event, and returns the machine pieces. The run is
// fully determined by the spec, so calling it twice replays the same
// event stream.
func (s Spec) instrumented(hook func(dev *nvm.Device, buf *nvm.PersistBuffer, w whisper.Recoverable, e nvm.Event)) (*nvm.PersistBuffer, whisper.Recoverable, error) {
	w, _, devSize, err := makeWorkload(s.Workload)
	if err != nil {
		return nil, nil, err
	}
	dev := nvm.NewDevice(nvm.NVM, devSize)
	mgr := pmo.NewManager(dev)
	rt := core.NewRuntime(params.NewConfig(params.Unprotected, params.DefaultEWMicros), mgr)
	ctx := rt.NewThread(sim.SingleThread())
	rng := rand.New(rand.NewSource(s.Seed))
	if err := w.Setup(mgr, ctx, rng); err != nil {
		return nil, nil, fmt.Errorf("crash: %s setup: %w", s.Workload, err)
	}
	if err := ctx.Attach(w.PMO(), paging.ReadWrite); err != nil {
		return nil, nil, err
	}
	// Enable the buffer only now: the load phase is durable ground truth,
	// and every measured op's persistence flows through the buffer.
	buf := dev.EnablePersistBuffer(nvm.DefaultLineSize)
	if hook != nil {
		buf.SetEventHook(func(e nvm.Event) { hook(dev, buf, w, e) })
	}
	for i := 0; i < s.Ops; i++ {
		if err := w.Op(ctx, rng); err != nil {
			return nil, nil, fmt.Errorf("crash: %s op %d: %w", s.Workload, i, err)
		}
	}
	return buf, w, nil
}

// dropper returns the adversarial line filter for a crash at event e: a
// deterministic coin per flushed-but-unfenced line, seeded by (run seed,
// event index). CrashImage consults it in ascending line order, so the
// decisions replay identically. Returns nil (strict ordering: every
// issued writeback survives) for non-adversarial specs.
func (s Spec) dropper(e nvm.Event, dropped *int) func(uint64) bool {
	if !s.Adversarial {
		return nil
	}
	r := rand.New(rand.NewSource(s.Seed ^ int64(e.Index)*0x9e3779b9))
	return func(uint64) bool {
		if r.Intn(2) == 1 {
			*dropped++
			return true
		}
		return false
	}
}

// imageInEnumeration reports whether img is one of the images the
// exhaustive enumerator materializes at the current instant — the
// cross-check that the sampling injector (dropper included) can never
// produce a state outside the litmus engine's state space. The walk
// stops at the first hash match; the error is the enumeration cap.
func imageInEnumeration(buf *nvm.PersistBuffer, img map[uint64][]byte) (bool, error) {
	want := nvm.ImageHash(img)
	found := false
	err := buf.ForEachCrashImage(func(cand map[uint64][]byte) bool {
		if nvm.ImageHash(cand) == want {
			found = true
			return false
		}
		return true
	})
	return found, err
}

// verify reopens the PMO from a post-crash image and checks every
// recovery invariant, returning the rolled-back record count.
func verify(img map[uint64][]byte, devSize uint64, w whisper.Recoverable, logCap int) (int, error) {
	dev := nvm.NewDevice(nvm.NVM, devSize)
	dev.Restore(img)
	mgr := pmo.NewManager(dev)
	p, err := mgr.Open(w.PMO().Name)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	l, err := txn.OpenLog(p, w.LogOID(), logCap)
	if err != nil {
		return 0, fmt.Errorf("open log: %w", err)
	}
	undone, err := l.Recover()
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	if n, err := l.Pending(); err != nil {
		return undone, err
	} else if n != 0 {
		return undone, fmt.Errorf("log not truncated: %d records pending", n)
	}
	if err := p.CheckConsistency(); err != nil {
		return undone, fmt.Errorf("allocator: %w", err)
	}
	if err := w.CheckInvariants(p); err != nil {
		return undone, fmt.Errorf("invariants: %w", err)
	}
	return undone, nil
}

// Run executes the spec: an enumeration pass collects the candidate
// events, then a replay pass captures a post-crash image at each selected
// point and verifies recovery from it on the spot (images are never all
// held at once).
func Run(s Spec) (*Report, error) {
	if s.Ops <= 0 {
		return nil, fmt.Errorf("crash: ops must be positive")
	}
	every := uint64(1)
	if s.Every > 1 {
		every = uint64(s.Every)
	}

	// Pass 1: enumerate candidate events under the policy.
	var candidates []uint64
	var fenceSeen uint64
	_, _, err := s.instrumented(func(_ *nvm.Device, _ *nvm.PersistBuffer, _ whisper.Recoverable, e nvm.Event) {
		switch s.Policy {
		case FencePolicy:
			if e.Kind == nvm.FenceEvent {
				if fenceSeen%every == 0 {
					candidates = append(candidates, e.Index)
				}
				fenceSeen++
			}
		case NthPolicy:
			if e.Index%every == 0 {
				candidates = append(candidates, e.Index)
			}
		case RandomPolicy:
			candidates = append(candidates, e.Index) // sampled below
		default:
		}
	})
	if err != nil {
		return nil, err
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("crash: policy %q matched no events", s.Policy)
	}
	if s.Policy == RandomPolicy {
		// Seeded sample without replacement, kept in event order.
		r := rand.New(rand.NewSource(s.Seed ^ 0x726e64))
		want := s.Points
		if want <= 0 || want > len(candidates) {
			want = len(candidates)
		}
		picked := r.Perm(len(candidates))[:want]
		sort.Ints(picked)
		sample := make([]uint64, len(picked))
		for i, idx := range picked {
			sample[i] = candidates[idx]
		}
		candidates = sample
	}
	total := len(candidates)
	if s.Points > 0 && s.Points < len(candidates) {
		candidates = candidates[:s.Points]
	}

	// Pass 2: replay, capture and verify each selected point in stream
	// order.
	rep := &Report{
		Workload:    s.Workload,
		Policy:      s.Policy,
		Adversarial: s.Adversarial,
		Ops:         s.Ops,
		Candidates:  total,
	}
	_, logCap, devSize, err := makeWorkload(s.Workload)
	if err != nil {
		return nil, err
	}
	next := 0
	buf, _, err := s.instrumented(func(dev *nvm.Device, buf *nvm.PersistBuffer, w whisper.Recoverable, e nvm.Event) {
		if next >= len(candidates) || e.Index != candidates[next] {
			return
		}
		next++
		pr := PointResult{Event: e.Index, Kind: e.Kind.String()}
		img := dev.CrashImage(s.dropper(e, &pr.Dropped))
		undone, verr := verify(img, devSize, w, logCap)
		pr.Undone = undone
		if verr != nil {
			pr.Err = verr.Error()
		}
		if s.CrossCheck {
			if found, cerr := imageInEnumeration(buf, img); cerr != nil {
				rep.CrossSkipped++
			} else {
				pr.Checked = true
				rep.CrossChecked++
				if !found {
					if pr.Err != "" {
						pr.Err += "; "
					}
					pr.Err += "sampled image not in exhaustive enumeration"
				}
			}
		}
		if pr.Err != "" {
			rep.Failures++
		}
		rep.Undone += undone
		rep.Points = append(rep.Points, pr)
	})
	if err != nil {
		return nil, err
	}
	if next != len(candidates) {
		return nil, fmt.Errorf("crash: replay visited %d of %d points", next, len(candidates))
	}
	rep.Events = buf.Events()
	rep.Fences = buf.Fences()
	return rep, nil
}
