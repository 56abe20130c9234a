package runner

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/params"
	"repro/internal/speckit"
)

// smallCells enumerates a representative mix: WHISPER and SPEC cells
// across schemes, like a miniature table3+table4.
func smallCells(seed int64) []Cell {
	var cells []Cell
	for _, w := range []string{"echo", "redis"} {
		for _, s := range []params.Scheme{params.MM, params.TT} {
			cells = append(cells, Cell{
				Exp: "t", Kind: Whisper, Workload: w, Scheme: s,
				EWMicros: 40, Seed: seed, Ops: 200,
			})
		}
	}
	for _, k := range []string{"mcf", "lbm"} {
		for _, s := range []params.Scheme{params.MM, params.TT} {
			cells = append(cells, Cell{
				Exp: "t", Kind: Spec, Workload: k, Scheme: s,
				EWMicros: 40, Seed: seed, Scale: 1, Threads: 1,
			})
		}
	}
	return cells
}

// runBatch runs cells as one job on a fresh pool of the given size with
// a private program cache, so every batch compiles its kernels cold and
// concurrently, and closes the pool when the job is done.
func runBatch(workers int, cells []Cell, opt Options) ([]CellResult, error) {
	p := newPool(workers, NewProgCache())
	defer p.Close()
	return p.Run(context.Background(), cells, opt)
}

func TestExecuteParallelMatchesSerial(t *testing.T) {
	cells := smallCells(1)
	serial, err := runBatch(1, cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runBatch(4, cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if !reflect.DeepEqual(serial[i].Result, par[i].Result) {
			t.Fatalf("cell %d (%s): parallel result differs from serial",
				i, cells[i].Name())
		}
	}
}

func TestExecutePreservesEnumerationOrder(t *testing.T) {
	cells := smallCells(7)
	res, err := runBatch(4, cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(cells) {
		t.Fatalf("results = %d, want %d", len(res), len(cells))
	}
	for i := range cells {
		if res[i].Cell != cells[i] {
			t.Fatalf("result %d holds cell %s, want %s",
				i, res[i].Cell.Name(), cells[i].Name())
		}
	}
}

func TestExecuteJoinsAllErrors(t *testing.T) {
	cells := []Cell{
		{Exp: "t", Kind: Whisper, Workload: "nosuch", Scheme: params.TT, EWMicros: 40, Seed: 1, Ops: 10},
		{Exp: "t", Kind: Whisper, Workload: "echo", Scheme: params.TT, EWMicros: 40, Seed: 1, Ops: 10},
		{Exp: "t", Kind: Spec, Workload: "missing", Scheme: params.TT, EWMicros: 40, Seed: 1},
	}
	res, err := runBatch(2, cells, Options{})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "nosuch") || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("joined error lost a cell failure: %v", err)
	}
	if res[0].Err == nil || res[1].Err != nil || res[2].Err == nil {
		t.Fatalf("per-cell errors misattributed: %v / %v / %v",
			res[0].Err, res[1].Err, res[2].Err)
	}
}

func TestProgressReachesTotal(t *testing.T) {
	cells := smallCells(1)[:4]
	var mu sync.Mutex
	var calls []int
	_, err := runBatch(3, cells, Options{
		Progress: func(done, total int, last Cell) {
			mu.Lock()
			defer mu.Unlock()
			if total != len(cells) {
				t.Errorf("total = %d, want %d", total, len(cells))
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(cells) || calls[len(calls)-1] != len(cells) {
		t.Fatalf("progress calls = %v", calls)
	}
}

func TestProgCacheCompilesOncePerKey(t *testing.T) {
	cache := NewProgCache()
	k, err := speckit.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	cfgTT := params.NewConfig(params.TT, 40)
	cfgCB := params.NewConfig(params.PlusCB, 40)
	optTT, insTT := speckit.InsertOptions(cfgTT)
	optCB, insCB := speckit.InsertOptions(cfgCB)

	var wg sync.WaitGroup
	progs := make([]interface{}, 8)
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt, ins := optTT, insTT
			if i%2 == 1 {
				opt, ins = optCB, insCB
			}
			p, err := cache.Linked(k, 1, ins, opt)
			if err != nil {
				t.Error(err)
			}
			progs[i] = p
		}()
	}
	wg.Wait()
	// TT and +CB share one cost model, so all eight requests hit one key.
	hits, misses := cache.Stats()
	if misses != 1 || hits != 7 {
		t.Fatalf("hits/misses = %d/%d, want 7/1", hits, misses)
	}
	for i := 1; i < 8; i++ {
		if progs[i] != progs[0] {
			t.Fatal("cache returned distinct programs for one key")
		}
	}

	// A different cost model is a different key.
	optMM, insMM := speckit.InsertOptions(params.NewConfig(params.MM, 40))
	if _, err := cache.Linked(k, 1, insMM, optMM); err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Stats(); misses != 2 {
		t.Fatalf("misses = %d after MM compile, want 2", misses)
	}
}

func TestRunCellUnknownKind(t *testing.T) {
	_, err := RunCell(Cell{Kind: Kind(99)}, nil)
	if err == nil {
		t.Fatal("want error for unknown kind")
	}
}
