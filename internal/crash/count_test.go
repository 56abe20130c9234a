package crash

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// forget drops the spec's key from the event-count memo, so that the
// next random cell of it counts on its own.
func forget(s Spec) {
	counts.Lock()
	delete(counts.m, s.countKey())
	counts.Unlock()
}

// memoized reports how many keys the event-count memo holds.
func memoized() int {
	counts.Lock()
	defer counts.Unlock()
	return len(counts.m)
}

// reportJSON runs the spec and returns its report's JSON.
func reportJSON(t *testing.T, s Spec) []byte {
	t.Helper()
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestRandomReportIndependentOfCountSource: a random cell's report has
// the same bytes whether its event count came from its own counting
// pass, from a fence pass of the same workload, seed and op count, or
// from the memo while it also holds another op count of that workload
// and seed. A memo key that leaves out a field instrumented reads hands
// the cell another run's count, and its sample and totals move.
func TestRandomReportIndependentOfCountSource(t *testing.T) {
	for _, w := range []string{"txnpairs", "ctree"} {
		t.Run(w, func(t *testing.T) {
			random := Spec{Workload: w, Ops: 120, Seed: 31, Policy: RandomPolicy, Points: 8, Adversarial: true}
			fence := Spec{Workload: w, Ops: random.Ops, Seed: random.Seed, Policy: FencePolicy, Every: 23, Points: 8}
			other := fence
			other.Ops = random.Ops / 2

			forget(random)
			own := reportJSON(t, random)
			if _, ok := random.counted(); !ok {
				t.Fatal("a counting pass memoized nothing")
			}

			forget(random)
			fenceRep, err := Run(fence)
			if err != nil {
				t.Fatal(err)
			}
			c, ok := random.counted()
			if !ok {
				t.Fatal("a fence pass memoized nothing")
			}
			if c.events != fenceRep.Events || c.fences != fenceRep.Fences {
				t.Fatalf("memoized %+v, fence report has %d events, %d fences", c, fenceRep.Events, fenceRep.Fences)
			}
			if got := reportJSON(t, random); !bytes.Equal(got, own) {
				t.Fatalf("count from a fence pass:\n%s\nown counting pass:\n%s", got, own)
			}

			if _, err := Run(other); err != nil {
				t.Fatal(err)
			}
			if got := reportJSON(t, random); !bytes.Equal(got, own) {
				t.Fatalf("memo also holding ops %d:\n%s\nown counting pass:\n%s", other.Ops, got, own)
			}
		})
	}
}

// TestCountMemoIsBounded runs random cells over a stream of distinct
// seeds, twice the memo's bound: the memo never holds more than
// maxCounted keys, and a cell counted after it was emptied reports what
// it reported before.
func TestCountMemoIsBounded(t *testing.T) {
	probe := Spec{Workload: "txnpairs", Ops: 20, Seed: 7, Policy: RandomPolicy, Points: 4, Adversarial: true}
	want := reportJSON(t, probe)
	for i := 0; i < 2*maxCounted; i++ {
		s := Spec{Workload: "txnpairs", Ops: 2, Seed: 1_000_000 + int64(i), Policy: RandomPolicy, Points: 1}
		if _, err := Run(s); err != nil {
			t.Fatal(err)
		}
		if n := memoized(); n > maxCounted {
			t.Fatalf("after %d distinct keys the memo holds %d, bound %d", i+1, n, maxCounted)
		}
	}
	if got := reportJSON(t, probe); !bytes.Equal(got, want) {
		t.Fatalf("after the stream:\n%s\nbefore:\n%s", got, want)
	}
}

// TestConcurrentCellsOfOneKey runs random and fence cells of one key at
// once, with nothing memoized for it: every random cell reports the
// serial run's bytes, whichever pass stored the count first. Under -race
// it checks the memo's locking.
func TestConcurrentCellsOfOneKey(t *testing.T) {
	random := Spec{Workload: "txnpairs", Ops: 60, Seed: 43, Policy: RandomPolicy, Points: 6, Adversarial: true}
	fence := Spec{Workload: "txnpairs", Ops: random.Ops, Seed: random.Seed, Policy: FencePolicy, Points: 6}
	forget(random)
	want := reportJSON(t, random)
	forget(random)
	got := make([][]byte, 6)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := random
			if i%2 == 1 {
				s = fence
			}
			rep, err := Run(s)
			if err != nil {
				t.Error(err)
				return
			}
			if s.Policy == RandomPolicy {
				got[i], _ = json.Marshal(rep)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < len(got); i += 2 {
		if !bytes.Equal(got[i], want) {
			t.Errorf("concurrent random cell %d:\n%s\nserial:\n%s", i, got[i], want)
		}
	}
}
