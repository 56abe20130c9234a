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
	// events. Candidates is, for fence and nth, how many events matched
	// the policy before Points capped them; for random, the sample size
	// after the cap (Points, or Events when Points is 0 or larger).
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

// makeWorkload builds the named workload, its log capacity and device size.
func makeWorkload(name string) (whisper.Workload, int, uint64, error) {
	if name == "txnpairs" {
		return NewTxnPairs(), 16, 1 << 24, nil
	}
	mk, err := whisper.ByName(name)
	if err != nil {
		return nil, 0, 0, err
	}
	return mk(), whisper.LogCapacity, 2 << 30, nil
}

// A run is one instrumented execution of a spec's workload: the live
// device and its persist buffer, and the workload with its log capacity.
type run struct {
	dev    *nvm.Device
	buf    *nvm.PersistBuffer
	w      whisper.Workload
	logCap int
}

// instrumented runs the spec's workload over a persist buffer, invoking
// hook (when non-nil) at every persist event, and returns the run. It
// stops before the next operation once stop (when non-nil) reports true.
// The run is fully determined by the spec, so calling it twice replays
// the same event stream.
func (s Spec) instrumented(hook func(r *run, e nvm.Event), stop func() bool) (*run, error) {
	w, logCap, devSize, err := makeWorkload(s.Workload)
	if err != nil {
		return nil, err
	}
	r := &run{dev: nvm.NewDevice(nvm.NVM, devSize), w: w, logCap: logCap}
	mgr := pmo.NewManager(r.dev)
	rt := core.NewRuntime(params.NewConfig(params.Unprotected, params.DefaultEWMicros), mgr)
	ctx := rt.NewThread(sim.SingleThread())
	rng := rand.New(rand.NewSource(s.Seed))
	if err := w.Setup(mgr, ctx, rng); err != nil {
		return nil, fmt.Errorf("crash: %s setup: %w", s.Workload, err)
	}
	if err := ctx.Attach(w.PMO(), paging.ReadWrite); err != nil {
		return nil, err
	}
	// Enable the buffer only now: the load phase is durable ground truth,
	// and every measured op's persistence flows through the buffer.
	r.buf = r.dev.EnablePersistBuffer(nvm.DefaultLineSize)
	if hook != nil {
		r.buf.SetEventHook(func(e nvm.Event) { hook(r, e) })
	}
	for i := 0; i < s.Ops && (stop == nil || !stop()); i++ {
		if err := w.Op(ctx, rng); err != nil {
			return nil, fmt.Errorf("crash: %s op %d: %w", s.Workload, i, err)
		}
	}
	return r, nil
}

// dropper returns the adversarial line filter for a crash at event e: a
// deterministic coin per flushed-but-unfenced line, seeded by (run seed,
// event index). CrashView consults it in ascending line order, so the
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

// imageInEnumeration reports whether the image with hash want is one of
// the images the exhaustive enumerator materializes at the current
// instant — the cross-check that the sampling injector (dropper included)
// can never produce a state outside the litmus engine's state space. The
// walk stops at the first hash match; the error is the enumeration cap.
func imageInEnumeration(buf *nvm.PersistBuffer, want [32]byte) (bool, error) {
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

// verify reopens the PMO on a post-crash image — a crash view, which
// recovery writes to — and checks every recovery invariant, returning the
// rolled-back record count.
func verify(dev *nvm.Device, w whisper.Workload, logCap int) (int, error) {
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

// inject crashes the run at event e: it verifies recovery on the crash
// view of this instant, which the hook drops before the run resumes, and
// records the point in rep.
func (s Spec) inject(rep *Report, r *run, e nvm.Event) {
	pr := PointResult{Event: e.Index, Kind: e.Kind.String()}
	view := r.dev.CrashView(s.dropper(e, &pr.Dropped))
	var img [32]byte
	if s.CrossCheck {
		img = nvm.ImageHash(view.Snapshot()) // before recovery writes to the view
	}
	undone, verr := verify(view, r.w, r.logCap)
	pr.Undone = undone
	if verr != nil {
		pr.Err = verr.Error()
	}
	if s.CrossCheck {
		if found, cerr := imageInEnumeration(r.buf, img); cerr != nil {
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
}

// Run executes the spec, verifying recovery from each selected crash
// point on the spot, on a copy-on-write view of the live device. Fence
// and nth points are known as the event stream goes, so one instrumented
// pass counts the candidates and verifies the first Points of them. A
// random sample needs the event count first: a counting pass runs the
// workload, then a replay verifies the sampled events and stops after the
// last one.
func Run(s Spec) (*Report, error) {
	if s.Ops <= 0 {
		return nil, fmt.Errorf("crash: ops must be positive")
	}
	rep := &Report{
		Workload:    s.Workload,
		Policy:      s.Policy,
		Adversarial: s.Adversarial,
		Ops:         s.Ops,
	}
	var err error
	if s.Policy == RandomPolicy {
		err = s.runSample(rep)
	} else {
		err = s.runStream(rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// runStream crashes at fence or nth events (every Every-th one), in one
// pass.
func (s Spec) runStream(rep *Report) error {
	every := uint64(max(s.Every, 1))
	var fences uint64
	r, err := s.instrumented(func(r *run, e nvm.Event) {
		switch s.Policy {
		case FencePolicy:
			if e.Kind != nvm.FenceEvent {
				return
			}
			fences++
			if (fences-1)%every != 0 {
				return
			}
		case NthPolicy:
			if e.Index%every != 0 {
				return
			}
		default:
			return // an unknown policy matches no event
		}
		rep.Candidates++
		if s.Points <= 0 || rep.Candidates <= s.Points {
			s.inject(rep, r, e)
		}
	}, nil)
	if err != nil {
		return err
	}
	if rep.Candidates == 0 {
		return fmt.Errorf("crash: policy %q matched no events", s.Policy)
	}
	rep.Events, rep.Fences = r.buf.Events(), r.buf.Fences()
	return nil
}

// runSample crashes at a seeded sample of all persist events: a counting
// pass, then a replay that stops after the last sampled event.
func (s Spec) runSample(rep *Report) error {
	count, err := s.instrumented(nil, nil)
	if err != nil {
		return err
	}
	rep.Events, rep.Fences = count.buf.Events(), count.buf.Fences()
	n := int(rep.Events)
	if n == 0 {
		return fmt.Errorf("crash: policy %q matched no events", s.Policy)
	}
	// Seeded sample of event indices without replacement, kept in event
	// order.
	want := s.Points
	if want <= 0 || want > n {
		want = n
	}
	sample := rand.New(rand.NewSource(s.Seed ^ 0x726e64)).Perm(n)[:want]
	sort.Ints(sample)
	rep.Candidates = want
	next := 0
	_, err = s.instrumented(func(r *run, e nvm.Event) {
		if next < len(sample) && e.Index == uint64(sample[next]) {
			next++
			s.inject(rep, r, e)
		}
	}, func() bool { return next == len(sample) })
	if err != nil {
		return err
	}
	if next != len(sample) {
		return fmt.Errorf("crash: replay visited %d of %d points", next, len(sample))
	}
	return nil
}
