package runner

import (
	"sync"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/speckit"
	"repro/internal/terpc"
)

// progKey identifies one compiled kernel program: the kernel and scale
// pick the TPL source, insert says whether the insertion pass ran, and
// the terpc cost model (thresholds + per-instruction estimates) pins the
// instrumentation. Two schemes with the same cost model (e.g. TT and the
// +CB ablation, or the same kernel at different thread counts) share one
// entry.
type progKey struct {
	kernel string
	scale  int
	insert bool
	opt    terpc.Options
}

// ProgCache memoizes the TPL lex/parse/lower + insertion pipeline and
// the link pass over its result. A linked program is read-only to the
// interpreter, so one entry may back any number of concurrent cells.
// Compilation of distinct keys proceeds in parallel; duplicate requests
// for one key block on a single compile.
type ProgCache struct {
	mu      sync.Mutex
	entries map[progKey]*progEntry

	hits, misses atomic.Int64
}

type progEntry struct {
	once   sync.Once
	linked *ir.Linked
	err    error
}

// DefaultCache is the shared process-wide cache every Pool uses (and
// RunCell when passed nil), so repeated experiments (and `-exp all`)
// reuse compiles across pools and jobs.
var DefaultCache = NewProgCache()

// NewProgCache returns an empty cache.
func NewProgCache() *ProgCache {
	return &ProgCache{entries: make(map[progKey]*progEntry)}
}

// Linked returns the pre-linked execution form of the kernel's compiled
// (and, when insert is true, instrumented) program, compiling and linking
// at most once per key. The program it was linked from is its Prog field.
func (c *ProgCache) Linked(k speckit.Kernel, scale int, insert bool, opt terpc.Options) (*ir.Linked, error) {
	if scale < 1 {
		scale = 1
	}
	key := progKey{kernel: k.Name, scale: scale, insert: insert, opt: opt}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &progEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		prog, err := speckit.Build(k, scale, insert, opt)
		if err != nil {
			e.err = err
			return
		}
		e.linked, e.err = ir.Link(prog)
	})
	return e.linked, e.err
}

// Stats reports cache hits and misses (a "hit" may still briefly block
// on the first compile of its key).
func (c *ProgCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
