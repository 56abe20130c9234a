package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	terp "repro"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/speckit"
)

// The layer drivers time one layer at a time through its public
// functions, as a repetition tester does (see timed): each calibrates
// how many calls make one timed section last at least sizes.section,
// then times sections until three in a row fail to beat the fastest or
// sizes.budget is spent, and reports the fastest section per call. The
// minimum is the layer's cost with the least interference from the host.
//
// "fit" working sets stay inside the simulated L1D or the host L2;
// "spill" ones exceed the simulated L2 or reach 8x the host L2.

// layerEnv is what the drivers share.
type layerEnv struct {
	seed int64
	sz   sizes
	grid *terp.Grid // the workload's representative grid
	m    *measurement
	tr   *tracer
}

// runLayers runs every driver and sets its metrics on r.
func runLayers(e layerEnv, r *report) error {
	drivers := []func(layerEnv, *report) error{
		driveCache, driveDevice, drivePersist, driveTLB, driveHandoff,
		driveCore, driveInterp, driveRunner, driveMarshal, driveService,
	}
	for _, d := range drivers {
		if err := d(e, r); err != nil {
			return err
		}
	}
	return nil
}

// timed is the repetition tester. op(n) makes n calls; the metric is
// the fastest section's time per call in ns, divided by scale to give
// the metric's unit. Every section's value is kept as a sample.
func (e layerEnv) timed(r *report, name string, scale float64, op func(n int) error) error {
	id := e.tr.begin("layer "+name, name, laneDrivers, 0)
	defer e.tr.end(id)
	n, spent := 1, time.Duration(0)
	section := func() (time.Duration, error) {
		start := time.Now()
		err := op(n)
		d := time.Since(start)
		spent += d
		return d, err
	}
	d, err := section()
	for err == nil && d < e.sz.section {
		grow := int(float64(e.sz.section)*1.2/float64(d+time.Microsecond)) + 1
		n *= min(max(grow, 2), 100)
		d, err = section()
	}
	perCall := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) / scale }
	best := perCall(d)
	sections := []float64{best}
	for stale := 0; err == nil && stale < 3 && spent < e.sz.budget; {
		if d, err = section(); err != nil {
			break
		}
		v := perCall(d)
		sections = append(sections, v)
		if v < best {
			best, stale = v, 0
		} else {
			stale++
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.set(name, best, sections)
	return nil
}

// hostL2 is the host's L2 size in bytes, rounded up to a power of two
// (1 MB when sysfs does not say).
func hostL2() uint64 {
	size := uint64(1 << 20)
	for _, c := range hostCaches() {
		if c.level == "2" {
			if kb, err := strconv.ParseUint(strings.TrimSuffix(c.size, "K"), 10, 64); err == nil {
				size = kb << 10
			}
		}
	}
	p := uint64(1)
	for p < size {
		p <<= 1
	}
	return p
}

// scatter returns the i-th index of a walk that visits each of n (a
// power of two) lines or pages once per pass in a scattered order, so
// neither the simulated nor the host prefetcher sees a stride.
func scatter(i int, n uint64) uint64 {
	return uint64(i) * 0x9E3779B1 & (n - 1)
}

func driveCache(e layerEnv, r *report) error {
	l1 := nvm.NewCache(params.L1DSize, params.L1DWays, params.LineSize)
	fitLines := uint64(params.L1DSize / 2 / params.LineSize)
	if err := e.timed(r, "nvm.cache_access_ns.fit", 1, func(n int) error {
		for i := 0; i < n; i++ {
			l1.Access(scatter(i, fitLines) * params.LineSize)
		}
		return nil
	}); err != nil {
		return err
	}
	l2 := nvm.NewCache(params.L2Size, params.L2Ways, params.LineSize)
	spillLines := uint64(8 * params.L2Size / params.LineSize)
	return e.timed(r, "nvm.cache_access_ns.spill", 1, func(n int) error {
		for i := 0; i < n; i++ {
			l2.Access(scatter(i, spillLines) * params.LineSize)
		}
		return nil
	})
}

func driveDevice(e layerEnv, r *report) error {
	for _, c := range []struct {
		name string
		ws   uint64
	}{
		{"nvm.device_rw_ns.fit", params.L1DSize},
		{"nvm.device_rw_ns.spill", 8 * hostL2()},
	} {
		d := nvm.NewDevice(nvm.NVM, c.ws)
		for off := uint64(0); off < c.ws; off += params.LineSize {
			if err := d.Write8(off, off); err != nil {
				return err
			}
		}
		lines := c.ws / params.LineSize
		if err := e.timed(r, c.name, 1, func(n int) error {
			for i := 0; i < n; i++ {
				off := scatter(i, lines) * params.LineSize
				v, err := d.Read8(off)
				if err == nil {
					err = d.Write8(off, v+1)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func drivePersist(e layerEnv, r *report) error {
	const lines = 1024
	d := nvm.NewDevice(nvm.NVM, 1<<24)
	d.EnablePersistBuffer(0)
	if err := e.timed(r, "nvm.persist_store_ns", 1, func(n int) error {
		for i := 0; i < n; i++ {
			off := uint64(i%lines) * params.LineSize
			if err := d.Write8(off, uint64(i)); err != nil {
				return err
			}
			d.Flush(off, 8)
			d.Fence()
		}
		return nil
	}); err != nil {
		return err
	}

	// A crash image of 1 MB of durable data, with 64 lines written but
	// not flushed and 32 flushed but not fenced.
	img := nvm.NewDevice(nvm.NVM, 1<<24)
	for off := uint64(0); off < 1<<20; off += 8 {
		if err := img.Write8(off, off); err != nil {
			return err
		}
	}
	img.EnablePersistBuffer(0)
	for i := uint64(0); i < 96; i++ {
		off := i * 4096
		if err := img.Write8(off, ^off); err != nil {
			return err
		}
		if i >= 64 {
			img.Flush(off, 8)
		}
	}
	return e.timed(r, "nvm.crash_image_us", 1e3, func(n int) error {
		for i := 0; i < n; i++ {
			if len(img.CrashImage(nil)) == 0 {
				return fmt.Errorf("empty crash image")
			}
		}
		return nil
	})
}

func driveTLB(e layerEnv, r *report) error {
	hit := paging.NewTLB()
	if err := e.timed(r, "paging.tlb_lookup_ns.hit", 1, func(n int) error {
		for i := 0; i < n; i++ {
			hit.Lookup(uint64(i%16) << params.PageShift)
		}
		return nil
	}); err != nil {
		return err
	}
	// 64K pages scattered over a 256 MB span miss both TLB levels.
	miss := paging.NewTLB()
	return e.timed(r, "paging.tlb_lookup_ns.miss", 1, func(n int) error {
		for i := 0; i < n; i++ {
			miss.Lookup(scatter(i, 1<<16) << params.PageShift)
		}
		return nil
	})
}

// driveHandoff times the sim.Machine scheduler alone: four threads whose
// bodies only charge one quantum at a time, so every charge is a yield
// and a handoff to the next thread.
func driveHandoff(e layerEnv, r *report) error {
	const threads, quantum = 4, 200
	return e.timed(r, "sim.handoff_ns", 1, func(n int) error {
		m := sim.NewMachine(e.seed, quantum)
		for t := 0; t < threads; t++ {
			m.AddThread(func(th *sim.Thread) {
				for i := 0; i < (n+threads-1)/threads; i++ {
					th.Charge(sim.Base, quantum)
				}
			})
		}
		m.Run()
		return nil
	})
}

// driveCore times the protection path through the public System API: a
// store to an attached PMO, and a conditional (TT) or system-call (MM)
// attach/detach pair.
func driveCore(e layerEnv, r *report) error {
	for _, c := range []struct {
		name   string
		scheme terp.Scheme
		pair   bool
	}{
		{"core.store_ns.tt", terp.TT, false},
		{"core.store_ns.unprot", terp.Unprotected, false},
		{"core.cond_pair_ns.tt", terp.TT, true},
		{"core.cond_pair_ns.mm", terp.MM, true},
	} {
		sys, err := terp.NewSystem(terp.Options{Scheme: c.scheme, Seed: e.seed})
		if err != nil {
			return err
		}
		p, err := sys.Create("layer", 1<<20)
		if err != nil {
			return err
		}
		if c.pair {
			err = e.timed(r, c.name, 1, func(n int) error {
				for i := 0; i < n; i++ {
					if err := sys.Attach(p, terp.ReadWrite); err != nil {
						return err
					}
					if err := sys.Detach(p); err != nil {
						return err
					}
				}
				return nil
			})
		} else {
			if err := sys.Attach(p, terp.ReadWrite); err != nil {
				return err
			}
			oid, err := p.Alloc(64)
			if err != nil {
				return err
			}
			err = e.timed(r, c.name, 1, func(n int) error {
				for i := 0; i < n; i++ {
					if err := sys.Store(oid, uint64(i)); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// driveInterp times one single-thread run of the smallest SPEC kernel on
// the linked interpreter, machine construction included.
func driveInterp(e layerEnv, r *report) error {
	k, err := speckit.ByName("mcf")
	if err != nil {
		return err
	}
	cfg := params.NewConfig(params.Unprotected, params.DefaultEWMicros)
	cfg.Seed = e.seed
	opt, insert := speckit.InsertOptions(cfg)
	linked, err := runner.NewProgCache().Linked(k, 1, insert, opt)
	if err != nil {
		return err
	}
	return e.timed(r, "interp.kernel_ms", 1e6, func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := speckit.RunLinked(cfg, k, linked, speckit.RunOpts{Threads: 1}); err != nil {
				return err
			}
		}
		return nil
	})
}

// driveRunner times the runner's per-cell costs: building a cell's
// simulated system (a whisper cell of one operation), compiling every
// kernel into a fresh program cache, and simulating one whole cell of
// each batch kind, per simulated cycle.
func driveRunner(e layerEnv, r *report) error {
	ctx := context.Background()
	runCells := func(c runner.Cell) func(n int) error {
		return func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := runner.RunCellCtx(ctx, c, nil, obs.Config{}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	tiny := runner.Cell{Exp: "layer", Kind: runner.Whisper, Workload: "hashmap", Scheme: params.TT, EWMicros: 40, Seed: e.seed, Ops: 1}
	if err := e.timed(r, "runner.cell_setup_us", 1e3, runCells(tiny)); err != nil {
		return err
	}
	const allocCells = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := runCells(tiny)(allocCells); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / allocCells / 1024
	r.set("runner.cell_setup_kb", kb, []float64{kb})

	if err := e.timed(r, "runner.compile_ms", 1e6, func(n int) error {
		for i := 0; i < n; i++ {
			points := []schemePoint{{params.Unprotected, 40}, {params.MM, 40}, {params.TT, 40}}
			if err := compileKernels(runner.NewProgCache(), points); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	for _, c := range []struct {
		name string
		cell runner.Cell
	}{
		{"runner.host_ns_per_cycle.whisper", runner.Cell{Exp: "layer", Kind: runner.Whisper, Workload: "hashmap",
			Scheme: params.TT, EWMicros: 40, Seed: e.seed, Ops: e.sz.whisperOps}},
		{"runner.host_ns_per_cycle.spec4t", runner.Cell{Exp: "layer", Kind: runner.Spec, Workload: "mcf",
			Scheme: params.PlusCB, EWMicros: 40, Seed: e.seed, Scale: 1, Threads: params.Cores}},
	} {
		res, err := runner.RunCell(c.cell, nil)
		if err != nil {
			return err
		}
		if err := e.timed(r, c.name, float64(res.Result.Cycles), runCells(c.cell)); err != nil {
			return err
		}
	}
	return nil
}

func driveMarshal(e layerEnv, r *report) error {
	if e.grid == nil {
		return fmt.Errorf("terp.marshal_ms: the workload produced no grid")
	}
	return e.timed(r, "terp.marshal_ms", 1e6, func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := e.grid.JSON(); err != nil {
				return err
			}
		}
		return nil
	})
}

// driveService runs one traced round of the serve workload on a fresh
// server and takes the medians of each phase of its jobs, then times
// GET /grid of a finished job.
func driveService(e layerEnv, r *report) error {
	s := newServe(e.seed, e.sz, e.m)
	defer s.close()
	if err := s.setup(nil); err != nil {
		return fmt.Errorf("service driver: %w", err)
	}
	id := e.tr.begin("layer service", "service", laneDrivers, 0)
	recs := s.round(e.tr)
	e.tr.end(id)
	phases := map[string][]float64{}
	var gridJob string
	for _, rec := range recs {
		e.m.op(rec.id, rec.err)
		if rec.err != nil {
			continue
		}
		phases["service.submit_ms"] = append(phases["service.submit_ms"], ms(rec.submit))
		phases["service.queue_wait_ms"] = append(phases["service.queue_wait_ms"], ms(rec.queueWait))
		phases["service.run_ms"] = append(phases["service.run_ms"], ms(rec.run))
		phases["service.notify_ms"] = append(phases["service.notify_ms"], ms(rec.notify))
		phases["service.grid_fetch_ms"] = append(phases["service.grid_fetch_ms"], ms(rec.fetch))
		if rec.exp == "table3" {
			gridJob = rec.id
		}
	}
	if gridJob == "" {
		return fmt.Errorf("service driver: no table3 job finished")
	}
	for name, xs := range phases {
		r.set(name, median(xs), xs)
	}
	return e.timed(r, "service.grid_get_us", 1e3, func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := s.get("/v1/jobs/" + gridJob + "/grid"); err != nil {
				return err
			}
		}
		return nil
	})
}
