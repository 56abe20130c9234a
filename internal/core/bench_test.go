package core

import (
	"testing"

	"repro/internal/nvm"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/sim"
)

// BenchmarkProtectionPath times the protection path per operation, as
// terpperf's core.store_ns.* and core.cond_pair_ns.* layers do through the
// public System API: a store to an attached PMO (with and without
// protection), and an attach/detach pair (conditional under TT, system
// calls under MM).
func BenchmarkProtectionPath(b *testing.B) {
	for _, c := range []struct {
		name   string
		scheme params.Scheme
		pair   bool
	}{
		{"store/tt", params.TT, false},
		{"store/unprot", params.Unprotected, false},
		{"pair/tt", params.TT, true},
		{"pair/mm", params.MM, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<30))
			p, err := mgr.Create("layer", 1<<20, pmo.ModeRead|pmo.ModeWrite)
			if err != nil {
				b.Fatal(err)
			}
			o, err := p.Alloc(64)
			if err != nil {
				b.Fatal(err)
			}
			ctx := NewRuntime(params.NewConfig(c.scheme, params.DefaultEWMicros), mgr).NewThread(sim.SingleThread())
			if !c.pair {
				if err := ctx.Attach(p, paging.ReadWrite); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !c.pair {
					err = ctx.Store(o, uint64(i))
				} else if err = ctx.Attach(p, paging.ReadWrite); err == nil {
					err = ctx.Detach(p)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
