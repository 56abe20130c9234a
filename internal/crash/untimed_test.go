package crash

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/nvm"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/whisper"
)

// TestUntimedOpsMatchMeasured checks the premise instrumented rests on:
// a workload driven untimed writes what a measured run writes. For
// txnpairs and every WHISPER workload at two seeds, Setup and 300 ops run
// with the persist buffer enabled after Setup, once through a measured
// thread context (an Unprotected runtime with the PMO attached) and once
// with a nil sink and whisper.Untimed. Both must leave the same device
// image and durable image, persist-event counts and next rng draw, so an
// op whose writes or draws depend on a clock or a charge fails it.
func TestUntimedOpsMatchMeasured(t *testing.T) {
	const ops = 300
	type outcome struct {
		image, durable [32]byte
		events, fences uint64
		next           uint64
	}
	drive := func(name string, seed int64, measured bool) outcome {
		w, _, devSize, err := makeWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		dev := nvm.NewDevice(nvm.NVM, devSize)
		mgr := pmo.NewManager(dev)
		rng := rand.New(rand.NewSource(seed))
		var sink txn.CostSink
		var th *core.ThreadCtx
		if measured {
			rt := core.NewRuntime(params.NewConfig(params.Unprotected, params.DefaultEWMicros), mgr)
			th = rt.NewThread(sim.SingleThread())
			sink = th
		}
		if err := w.Setup(mgr, sink, rng); err != nil {
			t.Fatal(err)
		}
		var ctx whisper.Accessor = whisper.Untimed{P: w.PMO()}
		if measured {
			if err := th.Attach(w.PMO(), paging.ReadWrite); err != nil {
				t.Fatal(err)
			}
			ctx = th
		}
		buf := dev.EnablePersistBuffer(nvm.DefaultLineSize)
		for i := 0; i < ops; i++ {
			if err := w.Op(ctx, rng); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if measured && th.Now() == 0 {
			t.Fatal("the measured ops charged nothing")
		}
		return outcome{nvm.ImageHash(dev), nvm.ImageHash(dev.CrashView(nil)), buf.Events(), buf.Fences(), rng.Uint64()}
	}
	for _, name := range []string{"txnpairs", "echo", "ycsb", "tpcc", "ctree", "hashmap", "redis"} {
		for _, seed := range []int64{1, 6} {
			measured, untimed := drive(name, seed, true), drive(name, seed, false)
			if measured != untimed {
				t.Errorf("%s, seed %d: measured ops leave image %x durable %x, %d events, %d fences, next %#x;"+
					" untimed ops image %x durable %x, %d events, %d fences, next %#x", name, seed,
					measured.image, measured.durable, measured.events, measured.fences, measured.next,
					untimed.image, untimed.durable, untimed.events, untimed.fences, untimed.next)
			}
			if untimed.events == 0 {
				t.Errorf("%s, seed %d: %d ops issued no persist event", name, seed, ops)
			}
		}
	}
}
