// Package litmus is the persistency-model verification subsystem: it
// runs small litmus programs over the internal/nvm persist-buffer model,
// exhaustively materializes every reachable post-crash image (a
// stateless-model-checker-style enumeration, not a sample), and diffs
// that set against the image set a declarative Px86-style persistency
// specification allows for the same program, computed from its ops alone.
//
// The diff is directional. A state the model reaches but the spec
// forbids is a model bug — the simulated persist path is weaker than
// the architecture it claims to model, and crash-consistency results
// built on it are untrustworthy. A state the spec allows but the model
// never produces is a deliberate modeling choice (the model has no
// spontaneous cache evictions, for example); each such divergence class
// must be named in the allowlist or it counts as a violation. See
// DESIGN.md "Litmus engine" for the semantics and the allowlist policy.
//
// Everything is deterministic: programs are either hand-written named
// shapes or generated from a seed, enumeration visits crash instants
// and writeback subsets in a fixed order, and state sets are keyed by
// canonical image bytes — so state counts are exact and byte-stable at
// any worker count.
package litmus

// LineSize is the persistence granularity litmus programs are written
// against (one cache line, matching nvm.DefaultLineSize).
const LineSize = 64

// OpKind discriminates litmus program operations.
type OpKind int

// Program operations: a buffered store, a cache-line writeback, and a
// persist barrier — the full PMO persist vocabulary (pmo.PMO.Write* /
// Flush / Fence all reduce to these three device operations).
const (
	OpStore OpKind = iota
	OpFlush
	OpFence
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpStore:
		return "st"
	case OpFlush:
		return "fl"
	default:
		return "sf"
	}
}

// Op is one litmus program operation.
type Op struct {
	// Kind selects the operation.
	Kind OpKind
	// Off and Len locate the byte range (stores and flushes; unused for
	// fences). Offsets are relative to the program window's base.
	Off, Len uint64
	// Val is the stored value, little-endian truncated to Len bytes
	// (stores only).
	Val uint64
}

// St stores an 8-byte value at the start of a line.
func St(line int, val uint64) Op {
	return Op{Kind: OpStore, Off: uint64(line) * LineSize, Len: 8, Val: val}
}

// StAt stores len bytes of val at an arbitrary window offset (partial
// and line-straddling stores).
func StAt(off, length uint64, val uint64) Op {
	return Op{Kind: OpStore, Off: off, Len: length, Val: val}
}

// Fl issues a writeback for one line.
func Fl(line int) Op {
	return Op{Kind: OpFlush, Off: uint64(line) * LineSize, Len: LineSize}
}

// FlAt issues a writeback for an arbitrary byte range (every overlapped
// line is captured).
func FlAt(off, length uint64) Op {
	return Op{Kind: OpFlush, Off: off, Len: length}
}

// Sf is a persist barrier.
func Sf() Op { return Op{Kind: OpFence} }

// Program is one litmus test: a straight-line sequence of persist
// operations over a small window of cache lines.
type Program struct {
	// Name identifies the test in reports ("named/publication",
	// "gen/7/03", ...).
	Name string
	// Lines is the window width; every op must stay inside
	// [0, Lines*LineSize).
	Lines int
	// Ops is the operation sequence.
	Ops []Op
	// Expect, when positive, is the hand-derived exact count of distinct
	// reachable post-crash images under the persist-buffer model; the
	// engine fails the program when the enumerated count differs.
	// Generated programs leave it zero.
	Expect int
}

// Named returns the hand-written litmus suite. Every program carries a
// hand-derived expected state count (see DESIGN.md for the derivations),
// so the suite pins both the persist-buffer semantics and the
// enumerator itself.
func Named() []Program {
	return []Program{
		{
			// Two unflushed stores: nothing can persist — the buffer has
			// no spontaneous evictions. Exactly the initial image.
			Name: "named/store-store", Lines: 2, Expect: 1,
			Ops: []Op{St(0, 1), St(1, 2)},
		},
		{
			// A flushed store, a fence, then an unflushed tail store:
			// the initial image (crash before the drain) and the
			// A-durable image — the tail store can never persist. 2.
			Name: "named/unflushed-tail", Lines: 2, Expect: 2,
			Ops: []Op{St(0, 1), Fl(0), Sf(), St(1, 2)},
		},
		{
			// Two flushed-but-unfenced lines: both writebacks are in
			// flight at the end, any subset may have drained. 2^2 = 4.
			Name: "named/flush-no-fence", Lines: 2, Expect: 4,
			Ops: []Op{St(0, 1), Fl(0), St(1, 2), Fl(1)},
		},
		{
			// Same two flushes with a trailing fence: the crash just
			// before the fence still sees all four subsets (flush order
			// does not order persists — they may "reorder"), the crash
			// after sees both durable. Still 4.
			Name: "named/flush-reorder", Lines: 2, Expect: 4,
			Ops: []Op{St(0, 1), Fl(0), St(1, 2), Fl(1), Sf()},
		},
		{
			// Fence-ordered publication (message passing): data is
			// flushed and fenced before the flag is written. The flag
			// can never be durable without the data: {00, 10, 11}. 3.
			Name: "named/publication", Lines: 2, Expect: 3,
			Ops: []Op{St(0, 1), Fl(0), Sf(), St(1, 2), Fl(1), Sf()},
		},
		{
			// Broken publication: no fence between the data flush and
			// the flag store, so a crash can persist the flag without
			// the data — the 4th, torn state the fence above forbids.
			Name: "named/pub-no-fence", Lines: 2, Expect: 4,
			Ops: []Op{St(0, 1), Fl(0), St(1, 2), Fl(1), Sf()},
		},
		{
			// Multi-line commit record: two data lines made durable
			// under one fence, then a commit mark. Data halves tear
			// freely before the fence; the commit implies both. 5:
			// 000, 100, 010, 110, 111.
			Name: "named/commit-record", Lines: 3, Expect: 5,
			Ops: []Op{
				St(0, 1), St(1, 2), Fl(0), Fl(1), Sf(),
				St(2, 3), Fl(2), Sf(),
			},
		},
		{
			// An 8-byte store straddling the line-0/line-1 boundary,
			// flushed across both lines: persistence is per line, so the
			// halves tear independently. 2^2 = 4.
			Name: "named/straddle", Lines: 2, Expect: 4,
			Ops: []Op{StAt(LineSize-4, 8, 0x1111222233334444), FlAt(LineSize-4, 8), Sf()},
		},
		{
			// The writeback-cancellation regression (the model bug this
			// engine found): store, flush, overwrite before the fence,
			// then publish a flag. The fence must drain the flushed
			// value 1 — so the flag never persists with line A still at
			// its initial value. {A0 B0, A1 B0, A1 B1}: 3. (The pre-fix
			// model produced the spec-forbidden A0 B1.)
			Name: "named/redirty-flush", Lines: 2, Expect: 3,
			Ops: []Op{St(0, 1), Fl(0), St(0, 2), Sf(), St(1, 3), Fl(1), Sf()},
		},
		{
			// Same-line overwrite through two full flush+fence rounds:
			// per-line prefix order — 0, then 1, then 2. 3 states.
			Name: "named/overwrite", Lines: 1, Expect: 3,
			Ops: []Op{St(0, 1), Fl(0), Sf(), St(0, 2), Fl(0), Sf()},
		},
		{
			// Writeback replacement: line A is flushed at 1, re-flushed
			// at 2, then B is flushed — all unfenced. The model's single
			// writeback slot replaces A's capture, so A1+B1 is
			// unreachable (an allowlisted wb-replace divergence; real
			// clflushopt writebacks are unordered and allow it). Model:
			// {00, A1, A2, B1, A2B1} = 5; no-eviction spec adds A1B1.
			Name: "named/reflush-replace", Lines: 2, Expect: 5,
			Ops: []Op{St(0, 1), Fl(0), St(0, 2), Fl(0), St(1, 3), Fl(1)},
		},
	}
}
