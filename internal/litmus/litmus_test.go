package litmus

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// TestNamedExpectCounts runs every hand-written litmus shape and checks
// the enumerated model-state count against its hand-derived expectation,
// with zero non-allowlisted divergences.
func TestNamedExpectCounts(t *testing.T) {
	progs := Named()
	if len(progs) < 8 {
		t.Fatalf("named suite has %d programs, want >= 8", len(progs))
	}
	for _, p := range progs {
		res, err := RunProgram(p, DefaultAllowlist())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if res.ModelStates != p.Expect {
			t.Errorf("%s: enumerated %d model states, hand-derived %d", p.Name, res.ModelStates, p.Expect)
		}
		if res.ModelOnly != 0 {
			t.Errorf("%s: %d spec-forbidden model states (model bug): %v", p.Name, res.ModelOnly, res.Diverged)
		}
		if res.Violations != 0 {
			t.Errorf("%s: %d violations: %+v", p.Name, res.Violations, res.Diverged)
		}
		if res.SpecStates < res.NoEvictStates || res.NoEvictStates < res.ModelStates {
			t.Errorf("%s: want model (%d) <= no-evict spec (%d) <= full spec (%d)",
				p.Name, res.ModelStates, res.NoEvictStates, res.SpecStates)
		}
		if p.Name == "named/reflush-replace" && res.WbReplace != 1 {
			t.Errorf("%s: %d wb-replace divergences, want exactly 1 (A1+B1)", p.Name, res.WbReplace)
		}
	}
}

// TestOracleForbidsBrokenPublication pins the oracle's teeth directly:
// for the redirty-flush program, the image with the flag durable but line
// A still initial violates fence ordering and must be outside the spec
// set. (The pre-fix persist buffer produced exactly this image by
// cancelling the in-flight writeback on re-dirty.)
func TestOracleForbidsBrokenPublication(t *testing.T) {
	spec := newOracle([]Op{St(0, 1), Fl(0), St(0, 2), Sf(), St(1, 3), Fl(1), Sf()}, 2).images()

	forbidden := make([]byte, 2*LineSize)
	binary.LittleEndian.PutUint64(forbidden[LineSize:], 3) // flag durable, A initial
	if spec[string(forbidden)] {
		t.Fatal("oracle allows the fence-violating image (flag durable, data lost)")
	}
	allowed := make([]byte, 2*LineSize)
	binary.LittleEndian.PutUint64(allowed[:], 1)
	binary.LittleEndian.PutUint64(allowed[LineSize:], 3)
	if !spec[string(allowed)] {
		t.Fatal("oracle rejects the fence-respecting image (data and flag durable)")
	}
}

// TestGenerateDeterministicAndPrefixStable checks seed reproducibility:
// the same (seed, n) yields byte-identical programs, different seeds
// differ, and shorter runs are prefixes of longer ones.
func TestGenerateDeterministicAndPrefixStable(t *testing.T) {
	a, b := Generate(7, 6), Generate(7, 6)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate(7, 6) not reproducible")
	}
	if pre := Generate(7, 3); !reflect.DeepEqual(pre, a[:3]) {
		t.Fatal("Generate(7, 3) is not a prefix of Generate(7, 6)")
	}
	if c := Generate(8, 6); reflect.DeepEqual(a, c) {
		t.Fatal("distinct seeds generated identical suites")
	}
	for _, p := range a {
		if p.Lines < genMinLines || p.Lines > genMaxLines {
			t.Fatalf("%s: %d lines outside [%d,%d]", p.Name, p.Lines, genMinLines, genMaxLines)
		}
		if len(p.Ops) < genMinOps || len(p.Ops) > genMaxOps {
			t.Fatalf("%s: %d ops outside [%d,%d]", p.Name, len(p.Ops), genMinOps, genMaxOps)
		}
		if p.Ops[0].Kind != OpStore {
			t.Fatalf("%s: first op %v, want a store", p.Name, p.Ops[0].Kind)
		}
	}
}

// TestGeneratedSuitesHaveNoViolations sweeps several seeds through the
// full engine: the model must stay inside the no-eviction spec set (no
// model-only states), every spec-only divergence must classify as an
// allowlisted class, and reports must be deterministic across runs.
func TestGeneratedSuitesHaveNoViolations(t *testing.T) {
	seeds := []int64{1, 2, 3, 11, 42}
	n := 12
	if testing.Short() {
		seeds, n = seeds[:2], 6
	}
	for _, seed := range seeds {
		rep, err := RunSuite("gen", Generate(seed, n), DefaultAllowlist())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.ModelOnly != 0 {
			t.Errorf("seed %d: %d spec-forbidden model states (model bug)", seed, rep.ModelOnly)
		}
		if rep.Violations != 0 {
			for _, r := range rep.Results {
				if r.Violations > 0 {
					t.Errorf("seed %d %s: %d violations: %+v", seed, r.Program, r.Violations, r.Diverged)
				}
			}
		}
		again, err := RunSuite("gen", Generate(seed, n), DefaultAllowlist())
		if err != nil {
			t.Fatalf("seed %d rerun: %v", seed, err)
		}
		if !reflect.DeepEqual(rep, again) {
			t.Errorf("seed %d: report not deterministic across runs", seed)
		}
	}
}

// TestRunProgramValidation rejects out-of-window and oversized ops.
func TestRunProgramValidation(t *testing.T) {
	if _, err := RunProgram(Program{Name: "bad", Lines: 1, Ops: []Op{St(1, 1)}}, nil); err == nil {
		t.Fatal("out-of-window store accepted")
	}
	if _, err := RunProgram(Program{Name: "bad", Lines: 1, Ops: []Op{StAt(0, 16, 1)}}, nil); err == nil {
		t.Fatal("16-byte store accepted")
	}
	if _, err := RunProgram(Program{Name: "bad", Lines: 0}, nil); err == nil {
		t.Fatal("zero-line window accepted")
	}
}
