package pmo

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/nvm"
)

func newMgr() *Manager {
	return NewManager(nvm.NewDevice(nvm.NVM, 1<<28))
}

func TestOIDEncoding(t *testing.T) {
	o := MakeOID(513, 0xabcdef)
	if o.Pool() != 513 || o.Offset() != 0xabcdef {
		t.Fatalf("round trip failed: pool=%d off=%#x", o.Pool(), o.Offset())
	}
	if !NilOID.IsNil() || o.IsNil() {
		t.Fatal("nil detection wrong")
	}
	if o.String() == "" {
		t.Fatal("String empty")
	}
}

func TestOIDProperty(t *testing.T) {
	f := func(pool uint16, off uint64) bool {
		off &= 1<<48 - 1
		o := MakeOID(uint32(pool), off)
		return o.Pool() == uint32(pool) && o.Offset() == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCreateOpenClose(t *testing.T) {
	m := newMgr()
	p, err := m.Create("kv", 1<<20, ModeRead|ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID == 0 || p.Size < 1<<20 {
		t.Fatalf("bad pmo: %+v", p)
	}
	if _, err := m.Create("kv", 1<<20, ModeRead); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	p.Close()
	if !p.closed {
		t.Fatal("close did not mark handle")
	}
	q, err := m.Open("kv")
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != p.ID || q.closed {
		t.Fatal("open returned wrong or closed pmo")
	}
	if _, err := m.Open("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open missing: %v", err)
	}
	if got, err := m.Lookup(p.ID); err != nil || got != p {
		t.Fatal("lookup by id failed")
	}
}

func TestAllocFreeReuse(t *testing.T) {
	m := newMgr()
	p, _ := m.Create("a", 1<<20, ModeRead|ModeWrite)
	o1, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if o1 == o2 {
		t.Fatal("allocations alias")
	}
	if o2.Offset() < o1.Offset()+100 {
		t.Fatalf("allocation at %v overlaps the 100 bytes at %v", o2, o1)
	}
	if err := p.Free(o1); err != nil {
		t.Fatal(err)
	}
	o3, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// First-fit should reuse the freed region.
	if o3.Offset() != o1.Offset() {
		t.Fatalf("free space not reused: %v vs %v", o3, o1)
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	m := newMgr()
	p, _ := m.Create("a", 1<<20, ModeWrite)
	o, _ := p.Alloc(64)
	if err := p.Free(o); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(o); !errors.Is(err, ErrBadOID) {
		t.Fatalf("double free: %v", err)
	}
}

func TestFreeForeignOIDRejected(t *testing.T) {
	m := newMgr()
	p1, _ := m.Create("a", 1<<20, ModeWrite)
	p2, _ := m.Create("b", 1<<20, ModeWrite)
	o, _ := p2.Alloc(64)
	if err := p1.Free(o); !errors.Is(err, ErrBadOID) {
		t.Fatalf("cross-pool free: %v", err)
	}
}

func TestCoalescing(t *testing.T) {
	m := newMgr()
	p, _ := m.Create("a", 1<<20, ModeWrite)
	var oids []OID
	for i := 0; i < 4; i++ {
		o, err := p.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, o)
	}
	for _, o := range oids {
		if err := p.Free(o); err != nil {
			t.Fatal(err)
		}
	}
	// After freeing all four adjacent blocks they must coalesce enough
	// to satisfy one allocation of the combined size.
	big, err := p.Alloc(4 * 64)
	if err != nil {
		t.Fatalf("coalescing failed: %v", err)
	}
	if big.Offset() != oids[0].Offset() {
		t.Fatalf("coalesced block not at start: %v vs %v", big, oids[0])
	}
}

func TestOutOfMemory(t *testing.T) {
	m := newMgr()
	p, _ := m.Create("small", 8<<10, ModeWrite)
	if _, err := p.Alloc(1 << 20); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("oversized alloc: %v", err)
	}
}

func TestAllocOnClosedHandle(t *testing.T) {
	m := newMgr()
	p, _ := m.Create("a", 1<<20, ModeWrite)
	p.Close()
	if _, err := p.Alloc(8); !errors.Is(err, ErrClosed) {
		t.Fatalf("alloc on closed: %v", err)
	}
	if err := p.Free(MakeOID(p.ID, DataStart+8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("free on closed: %v", err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dev := nvm.NewDevice(nvm.NVM, 1<<24)
	m := NewManager(dev)
	p, _ := m.Create("store", 1<<20, ModeWrite)
	o, _ := p.Alloc(32)
	if err := p.Write8(o.Offset(), 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	p.SetRoot(o)
	p.Close()

	q, err := m.Open("store")
	if err != nil {
		t.Fatal(err)
	}
	root := q.Root()
	if root != o {
		t.Fatalf("root = %v, want %v", root, o)
	}
	v, err := q.Read8(root.Offset())
	if err != nil || v != 0x1122334455667788 {
		t.Fatalf("persisted value = %#x, err %v", v, err)
	}
}

func TestReadWriteBounds(t *testing.T) {
	m := newMgr()
	p, _ := m.Create("a", 64<<10, ModeWrite)
	if err := p.Write8(p.Size-4, 1); err == nil {
		t.Fatal("straddling write accepted")
	}
	if _, err := p.Read8(p.Size); err == nil {
		t.Fatal("out-of-pmo read accepted")
	}
	if err := p.WriteAt(make([]byte, 16), p.Size-8); err == nil {
		t.Fatal("out-of-pmo WriteAt accepted")
	}
}

// TestMapImageBounds: an image maps into a PMO only inside it; one that
// starts before the PMO or runs past its end is a bad OID and maps nothing.
func TestMapImageBounds(t *testing.T) {
	m := newMgr()
	p, _ := m.Create("a", 64<<10, ModeWrite)
	for _, lo := range []uint64{p.DevOff - 8, p.DevOff + p.Size - 8} {
		if err := p.MapImage(nvm.NewImage([]uint64{1, 2}, lo)); !errors.Is(err, ErrBadOID) {
			t.Fatalf("image at device offset %#x across the PMO's edge: %v, want ErrBadOID", lo, err)
		}
	}
	off := p.Size - 16
	if err := p.MapImage(nvm.NewImage([]uint64{1, 2}, p.DevOff+off)); err != nil {
		t.Fatal(err)
	}
	words := make([]uint64, 2)
	if err := p.ReadWords(words, off); err != nil || words[0] != 1 || words[1] != 2 {
		t.Fatalf("mapped words read %v, %v; want [1 2]", words, err)
	}
}

func TestAllocCountTracking(t *testing.T) {
	m := newMgr()
	p, _ := m.Create("a", 1<<20, ModeWrite)
	o1, _ := p.Alloc(8)
	o2, _ := p.Alloc(8)
	if p.AllocCount() != 2 {
		t.Fatalf("count = %d", p.AllocCount())
	}
	p.Free(o1)
	p.Free(o2)
	if p.AllocCount() != 0 {
		t.Fatalf("count = %d after frees", p.AllocCount())
	}
}

// Property: a random workload of allocations and frees never corrupts the
// allocator, never returns overlapping live blocks, and data written to a
// block always reads back.
func TestAllocatorPropertyWorkload(t *testing.T) {
	m := newMgr()
	p, _ := m.Create("prop", 1<<22, ModeWrite)
	r := rand.New(rand.NewSource(11))
	type live struct {
		o    OID
		size uint64
		tag  uint64
	}
	var blocks []live
	for step := 0; step < 3000; step++ {
		if len(blocks) == 0 || r.Intn(100) < 60 {
			size := uint64(8 + r.Intn(512))
			o, err := p.Alloc(size)
			if errors.Is(err, ErrNoMemory) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			// Overlap check against all live blocks.
			for _, b := range blocks {
				if o.Offset() < b.o.Offset()+b.size && b.o.Offset() < o.Offset()+size {
					t.Fatalf("overlap: new [%#x,%d) with [%#x,%d)", o.Offset(), size, b.o.Offset(), b.size)
				}
			}
			tag := r.Uint64()
			if err := p.Write8(o.Offset(), tag); err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, live{o, size, tag})
		} else {
			i := r.Intn(len(blocks))
			b := blocks[i]
			if v, err := p.Read8(b.o.Offset()); err != nil || v != b.tag {
				t.Fatalf("tag mismatch: %#x != %#x (%v)", v, b.tag, err)
			}
			if err := p.Free(b.o); err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks[:i], blocks[i+1:]...)
		}
	}
	if p.AllocCount() != uint64(len(blocks)) {
		t.Fatalf("alloc count %d != live %d", p.AllocCount(), len(blocks))
	}
}

func TestFreeBytesMonotonicity(t *testing.T) {
	m := newMgr()
	p, _ := m.Create("a", 1<<20, ModeWrite)
	before := p.FreeBytes()
	o, _ := p.Alloc(1024)
	during := p.FreeBytes()
	p.Free(o)
	after := p.FreeBytes()
	if during >= before {
		t.Fatalf("alloc did not consume space: %d >= %d", during, before)
	}
	if after != before {
		t.Fatalf("free did not restore space: %d != %d", after, before)
	}
}

func TestCheckConsistency(t *testing.T) {
	m := newMgr()
	p, err := m.Create("cons", 1<<20, ModeRead|ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckConsistency(); err != nil {
		t.Fatalf("fresh PMO inconsistent: %v", err)
	}
	// A worked allocator (allocs, frees, coalescing) stays consistent.
	r := rand.New(rand.NewSource(5))
	var live []OID
	for i := 0; i < 400; i++ {
		if len(live) > 0 && r.Intn(3) == 0 {
			k := r.Intn(len(live))
			if err := p.Free(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		} else {
			o, err := p.Alloc(uint64(8 + r.Intn(256)))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, o)
		}
		if err := p.CheckConsistency(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestCheckConsistencyDetectsCorruption(t *testing.T) {
	cases := []struct {
		name  string
		smash func(p *PMO)
	}{
		{"magic", func(p *PMO) { p.write8(offMagic, 0xbad) }},
		{"size", func(p *PMO) { p.write8(offSize, p.Size/2) }},
		{"brk-low", func(p *PMO) { p.write8(offBrk, 8) }},
		{"brk-high", func(p *PMO) { p.write8(offBrk, p.Size+8) }},
		{"free-out-of-range", func(p *PMO) { p.write8(offFreeHead, p.Size) }},
		{"free-cycle", func(p *PMO) {
			o, _ := p.Alloc(32)
			p.Free(o)
			blk := o.Offset() - blockHeader
			p.write8(blk+8, blk) // self-loop
		}},
		{"free-bad-size", func(p *PMO) {
			o, _ := p.Alloc(32)
			p.Free(o)
			p.write8(o.Offset()-blockHeader, 1)
		}},
	}
	for _, tc := range cases {
		m := newMgr()
		p, err := m.Create("smash-"+tc.name, 1<<20, ModeRead|ModeWrite)
		if err != nil {
			t.Fatal(err)
		}
		tc.smash(p)
		if err := p.CheckConsistency(); err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		}
	}
}

// TestAllocRunMatchesAllocs: AllocRun(n, size) on a fresh PMO leaves the
// device image, allocation count and allocator state that n Allocs leave,
// places block i where the i-th Alloc placed it, and the next Alloc after
// either returns the same OID.
func TestAllocRunMatchesAllocs(t *testing.T) {
	fresh := func() (*nvm.Device, *PMO) {
		dev := nvm.NewDevice(nvm.NVM, 1<<24)
		p, err := NewManager(dev).Create("run", 1<<20, ModeRead|ModeWrite)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Alloc(40); err != nil { // something allocated before
			t.Fatal(err)
		}
		return dev, p
	}
	for _, n := range []uint64{0, 1, 2, 7, 100} {
		for _, size := range []uint64{0, 5, 8, 32} {
			devA, a := fresh()
			var want []OID
			for i := uint64(0); i < n; i++ {
				o, err := a.Alloc(size)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, o)
			}
			devB, b := fresh()
			first, stride, err := b.AllocRun(n, size)
			if err != nil {
				t.Fatalf("AllocRun(%d, %d): %v", n, size, err)
			}
			for i, o := range want {
				if got := MakeOID(b.ID, first.Offset()+uint64(i)*stride); got != o {
					t.Fatalf("AllocRun(%d, %d) block %d at %v, Alloc put it at %v", n, size, i, got, o)
				}
			}
			if ha, hb := nvm.ImageHash(devA), nvm.ImageHash(devB); ha != hb {
				t.Errorf("AllocRun(%d, %d) image %x, %d Allocs %x", n, size, hb, n, ha)
			}
			if a.AllocCount() != b.AllocCount() {
				t.Errorf("AllocRun(%d, %d) count %d, %d Allocs %d", n, size, b.AllocCount(), n, a.AllocCount())
			}
			if err := b.CheckConsistency(); err != nil {
				t.Errorf("AllocRun(%d, %d): %v", n, size, err)
			}
			na, errA := a.Alloc(24)
			nb, errB := b.Alloc(24)
			if na != nb || errA != nil || errB != nil {
				t.Errorf("AllocRun(%d, %d): next Alloc %v, %v; after %d Allocs %v, %v", n, size, nb, errB, n, na, errA)
			}
		}
	}
}

// TestAllocRunRefusals: AllocRun refuses a PMO with a non-empty free
// list, a device with a persist buffer, a closed handle and a run that
// does not fit, and each refusal leaves the device as it was.
func TestAllocRunRefusals(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ready func(*nvm.Device, *PMO)
		is    error
	}{
		{"free list", func(_ *nvm.Device, p *PMO) {
			o, _ := p.Alloc(64)
			p.Alloc(8)
			p.Free(o)
		}, nil},
		{"persist buffer", func(d *nvm.Device, _ *PMO) { d.EnablePersistBuffer(0) }, nil},
		{"closed", func(_ *nvm.Device, p *PMO) { p.Close() }, ErrClosed},
		{"no room", func(*nvm.Device, *PMO) {}, ErrNoMemory},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := nvm.NewDevice(nvm.NVM, 1<<24)
			p, err := NewManager(dev).Create("run", 1<<16, ModeRead|ModeWrite)
			if err != nil {
				t.Fatal(err)
			}
			tc.ready(dev, p)
			before := nvm.ImageHash(dev)
			// 2,000 blocks of 32 bytes take 80,000 bytes, more than the
			// 64 KB PMO holds.
			n := uint64(10)
			if tc.is == ErrNoMemory {
				n = 2000
			}
			if _, _, err := p.AllocRun(n, 32); err == nil || (tc.is != nil && !errors.Is(err, tc.is)) {
				t.Fatalf("AllocRun: %v, want a refusal (%v)", err, tc.is)
			}
			if after := nvm.ImageHash(dev); after != before {
				t.Fatal("the refused AllocRun changed the device")
			}
		})
	}
}
