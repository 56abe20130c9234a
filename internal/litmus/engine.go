package litmus

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/nvm"
)

// devSize is the backing device for one program run: a single page, so
// the whole window (at most a few lines) lives in page 0.
const devSize = 4096

// Divergence classes for states the spec allows but the model never
// produces. ClassModelOnly is the reverse direction — a state the model
// produces but the no-eviction spec forbids — and is never
// allowlistable: it means the simulated persist path is weaker than
// Px86.
const (
	ClassModelOnly = "model-only"
	ClassEviction  = "eviction"
	ClassWbReplace = "wb-replace"
)

// Allowlist names the spec-only divergence classes that are documented
// modeling choices rather than violations.
type Allowlist map[string]bool

// DefaultAllowlist admits the two documented modeling choices:
//
//   - ClassEviction: the persist-buffer model has no spontaneous cache
//     evictions — a dirty line persists only via an explicit flush —
//     so spec states outside the no-eviction set are expected.
//   - ClassWbReplace: the model keeps one in-flight writeback per line
//     and a re-flush replaces the capture, so an older same-line
//     capture can never persist alongside a newer cross-line one, even
//     though unordered clflushopt writebacks allow it.
//
// Anything else — above all ClassModelOnly — is a violation.
func DefaultAllowlist() Allowlist {
	return Allowlist{ClassEviction: true, ClassWbReplace: true}
}

// Divergence is one image present in exactly one of the two sets.
type Divergence struct {
	// Class is one of the Class* constants.
	Class string `json:"class"`
	// Image is the hex window bytes of the diverging state.
	Image string `json:"image"`
}

// Result is the verdict for one litmus program.
type Result struct {
	// Program is the program name.
	Program string `json:"program"`
	// Ops and Events count program operations and persist events.
	Ops    int `json:"ops"`
	Events int `json:"events"`
	// ModelStates and SpecStates are the exact distinct post-crash image
	// counts reachable under the model and allowed by the full oracle;
	// NoEvictStates is the oracle's eviction-free subset.
	ModelStates   int `json:"modelStates"`
	SpecStates    int `json:"specStates"`
	NoEvictStates int `json:"noEvictStates"`
	// ModelOnly counts model states outside the no-eviction spec set
	// (always violations).
	ModelOnly int `json:"modelOnly"`
	// Eviction and WbReplace count spec-only states by class.
	Eviction  int `json:"eviction"`
	WbReplace int `json:"wbReplace"`
	// Violations counts non-allowlisted divergences plus any Expect
	// mismatch.
	Violations int `json:"violations"`
	// Expect echoes the hand-derived model-state count (0 = unchecked);
	// ExpectMismatch reports a disagreement with ModelStates.
	Expect         int  `json:"expect,omitempty"`
	ExpectMismatch bool `json:"expectMismatch,omitempty"`
	// Diverged lists the violating images (capped; counts stay exact).
	Diverged []Divergence `json:"diverged,omitempty"`
}

// maxDiverged caps the per-program violating-image detail list.
const maxDiverged = 8

// Report aggregates a suite run.
type Report struct {
	// Suite names the run ("named", "gen/<seed>").
	Suite string `json:"suite"`
	// Programs counts programs run.
	Programs int `json:"programs"`
	// Sums over all programs.
	Events      int `json:"events"`
	ModelStates int `json:"modelStates"`
	SpecStates  int `json:"specStates"`
	ModelOnly   int `json:"modelOnly"`
	Eviction    int `json:"eviction"`
	WbReplace   int `json:"wbReplace"`
	Violations  int `json:"violations"`
	// Results holds per-program verdicts in run order.
	Results []Result `json:"results"`
}

// RunProgram executes one litmus program, exhaustively enumerates the
// model's reachable post-crash images, computes the oracle's allowed
// set from the program itself, and diffs the two.
//
// Model enumeration visits the persist-buffer state just before every
// persist event (the event hook runs pre-effect) plus the final state,
// and reads every writeback drop subset at each instant from the same
// crash views the fault injector verifies on. Stores between
// events cannot change the image set — a first store to a clean line
// leaves its durable bytes intact, and a store to a pending line touches
// neither the durable copy nor the in-flight writeback — so these
// instants cover every reachable image exactly.
func RunProgram(p Program, allow Allowlist) (Result, error) {
	res := Result{Program: p.Name, Ops: len(p.Ops), Expect: p.Expect}
	if p.Lines <= 0 || uint64(p.Lines)*LineSize > devSize {
		return res, fmt.Errorf("litmus %s: window of %d lines out of range", p.Name, p.Lines)
	}
	for i, op := range p.Ops {
		if op.Kind != OpFence {
			if op.Len == 0 || op.Off+op.Len > uint64(p.Lines)*LineSize {
				return res, fmt.Errorf("litmus %s: op %d [%d,%d) outside the %d-line window",
					p.Name, i, op.Off, op.Off+op.Len, p.Lines)
			}
			if op.Kind == OpStore && op.Len > 8 {
				return res, fmt.Errorf("litmus %s: op %d stores %d bytes (max 8)", p.Name, i, op.Len)
			}
		}
	}

	dev := nvm.NewDevice(nvm.NVM, devSize)
	buf := dev.EnablePersistBuffer(LineSize)

	// model keys each reachable image by its window's bytes.
	model := make(map[string]bool)
	window := make([]byte, p.Lines*LineSize)
	var enumErr error
	collect := func() {
		if enumErr != nil {
			return
		}
		enumErr = buf.ForEachCrashImage(func(view *nvm.Device) bool {
			_ = view.ReadAt(window, 0) // the window lies inside the device, checked above
			model[string(window)] = true
			return true
		})
	}
	buf.SetEventHook(func(nvm.Event) { collect() })

	var b [8]byte
	for _, op := range p.Ops {
		switch op.Kind {
		case OpStore:
			binary.LittleEndian.PutUint64(b[:], op.Val)
			if err := dev.WriteAt(b[:op.Len], op.Off); err != nil {
				return res, fmt.Errorf("litmus %s: %w", p.Name, err)
			}
		case OpFlush:
			dev.Flush(op.Off, op.Len)
		case OpFence:
			dev.Fence()
		}
	}
	collect() // the final crash instant, after the last op
	if enumErr != nil {
		return res, fmt.Errorf("litmus %s: %w", p.Name, enumErr)
	}
	res.Events = int(buf.Events())

	o := newOracle(p.Ops, p.Lines)
	spec := o.images()
	noEvict, err := o.noEvictImages()
	if err != nil {
		return res, fmt.Errorf("litmus %s: %w", p.Name, err)
	}
	res.ModelStates, res.SpecStates, res.NoEvictStates = len(model), len(spec), len(noEvict)

	// Directional diff, in sorted image order for stable reports. The
	// model has no evictions, so it must stay inside the *no-eviction*
	// spec set — a model state merely inside the full set would still
	// need an eviction the model cannot perform.
	for _, k := range sortedKeys(model) {
		if !noEvict[k] {
			res.ModelOnly++
			res.Violations++
			if len(res.Diverged) < maxDiverged {
				res.Diverged = append(res.Diverged, Divergence{Class: ClassModelOnly, Image: hex.EncodeToString([]byte(k))})
			}
		}
	}
	for _, k := range sortedKeys(spec) {
		if model[k] {
			continue
		}
		class := ClassEviction
		if noEvict[k] {
			class = ClassWbReplace
		}
		if class == ClassEviction {
			res.Eviction++
		} else {
			res.WbReplace++
		}
		if !allow[class] {
			res.Violations++
			if len(res.Diverged) < maxDiverged {
				res.Diverged = append(res.Diverged, Divergence{Class: class, Image: hex.EncodeToString([]byte(k))})
			}
		}
	}
	if p.Expect > 0 && res.ModelStates != p.Expect {
		res.ExpectMismatch = true
		res.Violations++
	}
	return res, nil
}

// RunSuite runs every program and aggregates a report.
func RunSuite(suite string, progs []Program, allow Allowlist) (*Report, error) {
	rep := &Report{Suite: suite, Results: make([]Result, 0, len(progs))}
	for _, p := range progs {
		res, err := RunProgram(p, allow)
		if err != nil {
			return nil, err
		}
		rep.Programs++
		rep.Events += res.Events
		rep.ModelStates += res.ModelStates
		rep.SpecStates += res.SpecStates
		rep.ModelOnly += res.ModelOnly
		rep.Eviction += res.Eviction
		rep.WbReplace += res.WbReplace
		rep.Violations += res.Violations
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

// sortedKeys returns a map's keys in ascending byte order.
func sortedKeys(m map[string]bool) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
