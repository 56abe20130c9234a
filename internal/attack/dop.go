package attack

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/nvm"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/sim"
)

// DOPOpts configures the Figure 12 data-only attack case study.
type DOPOpts struct {
	// Nodes is the length of the victim's persistent linked list (the
	// attack goal is to corrupt every node's prop field).
	Nodes int
	// Rounds is the number of request-processing rounds simulated.
	Rounds int
	// Seed seeds the simulation.
	Seed int64
	// GadgetInParse places the exploited gadget in the request-parsing
	// code (outside the PM section). TERP disarms such gadgets
	// entirely — the thread holds no permission there. When false the
	// gadget sits inside the PM update section, where only address
	// randomization hinders it.
	GadgetInParse bool
}

// DOPResult reports the case-study outcome.
type DOPResult struct {
	// Scheme is the protection configuration.
	Scheme params.Scheme
	// Corrupted is the number of successful gadget writes.
	Corrupted int
	// Faults counts gadget attempts stopped by a protection fault.
	Faults int
	// StaleAddr counts gadget attempts that targeted an address made
	// useless by randomization (the write landed nowhere or faulted).
	StaleAddr int
	// Disclosures counts times the attacker re-learned the base.
	Disclosures int
}

// Succeeded reports whether the attacker corrupted the whole list.
func (r DOPResult) Succeeded(nodes int) bool { return r.Corrupted >= nodes }

// RunDOP simulates the FTP-server data-only attack of Figure 12 under
// one protection configuration. The victim processes rounds of requests:
// parse (no PM permission needed), then a PM section that walks its
// persistent linked list inside an attach-detach pair. The attacker has
// corrupted the request buffer and controls the victim's locals, giving
// it one arbitrary-write gadget per round at the configured code site,
// plus a memory-disclosure gadget it uses to learn the list's current
// virtual address. Randomization between windows makes learned addresses
// stale; thread exposure windows disarm gadget sites outside PM sections.
func RunDOP(cfg params.Config, opt DOPOpts) (DOPResult, error) {
	if opt.Nodes == 0 {
		opt.Nodes = 16
	}
	if opt.Rounds == 0 {
		opt.Rounds = 400
	}
	res := DOPResult{Scheme: cfg.Scheme}

	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<30))
	rt := core.NewRuntime(cfg, mgr)
	ctx := rt.NewThread(sim.SingleThread())
	p, err := mgr.Create("victim.list", 1<<26, pmo.ModeRead|pmo.ModeWrite)
	if err != nil {
		return res, err
	}
	// Build the linked list: node = [prop | next], head stored first.
	nodes := make([]pmo.OID, opt.Nodes)
	for i := range nodes {
		if nodes[i], err = p.Alloc(16); err != nil {
			return res, err
		}
	}
	for i, n := range nodes {
		if err := p.Write8(n.Offset(), 100); err != nil { // prop
			return res, err
		}
		next := uint64(0)
		if i+1 < len(nodes) {
			next = uint64(nodes[i+1])
		}
		if err := p.Write8(n.Offset()+8, next); err != nil {
			return res, err
		}
	}

	rng := rand.New(rand.NewSource(opt.Seed + 7))
	var attackerBase uint64
	var haveAddr bool
	var attackerEpoch uint64 // placement epoch when the address was learned

	// epoch advances whenever the PMO's placement changes: every real
	// attach picks a fresh random base and every sweep randomization
	// moves it in place.
	epoch := func() uint64 {
		return rt.Counts.Randomizations + rt.Counts.AttachSyscalls
	}

	disclose := func() {
		// The disclosure gadget leaks a pointer to the list; it also
		// needs access permission at its site.
		if base, ok := rt.MappingBase(p.ID); ok {
			if _, err := ctx.LoadVA(base + nodes[0].Offset()); err == nil {
				attackerBase = base
				haveAddr = true
				attackerEpoch = epoch()
				res.Disclosures++
			} else {
				res.Faults++
			}
		}
	}
	target := 0
	gadget := func() {
		// Without a usable address the round goes to disclosing one.
		// With one, the corrupted locals give one arbitrary write: the
		// attacker aims at node[target].prop using its learned base.
		if !haveAddr {
			disclose()
			return
		}
		if epoch() != attackerEpoch {
			// The address was learned before a randomization; the
			// write goes to a dead location.
			res.StaleAddr++
			haveAddr = false
			if err := ctx.StoreVA(attackerBase+nodes[target].Offset(), 999); err != nil {
				res.Faults++
			}
			return
		}
		if err := ctx.StoreVA(attackerBase+nodes[target].Offset(), 999); err != nil {
			res.Faults++
			haveAddr = false
			return
		}
		res.Corrupted++
		target = (target + 1) % opt.Nodes
	}

	// mmBatch is how many rounds one manual MM bracket spans.
	const mmBatch = 8
	// Only TERP insertion brackets each PM section; the manual schemes'
	// mapping covers the parse code too. So the gadget fires inside a
	// window unless it sits in parse code under TERP.
	manual := cfg.Scheme == params.MM || cfg.Scheme == params.Unprotected
	gadgetInWindow := manual || !opt.GadgetInParse
	for round := 0; round < opt.Rounds; round++ {
		// Parse phase. Under TERP insertion it runs outside any PM
		// window; the manual MM bracket wraps whole handler batches,
		// and the unprotected baseline maps the PMO once up front.
		switch cfg.Scheme {
		case params.Unprotected:
			if round == 0 {
				if err := ctx.Attach(p, paging.ReadWrite); err != nil {
					return res, err
				}
			}
		case params.MM:
			if round%mmBatch == 0 {
				if err := ctx.Attach(p, paging.ReadWrite); err != nil {
					return res, err
				}
			}
		}
		ctx.Compute(1500) // parse
		if !gadgetInWindow {
			// TERP: the parse-site gadget fires with no window open.
			gadget()
		}

		// PM section.
		if !manual {
			if err := ctx.Attach(p, paging.ReadWrite); err != nil {
				return res, err
			}
		}
		// Legitimate work: walk a random node.
		n := nodes[rng.Intn(len(nodes))]
		if _, err := ctx.Load(n); err != nil {
			return res, fmt.Errorf("victim load: %w", err)
		}
		if gadgetInWindow {
			gadget()
		}
		if !manual {
			if err := ctx.Detach(p); err != nil {
				return res, err
			}
		}
		if cfg.Scheme == params.MM && round%mmBatch == mmBatch-1 {
			if err := ctx.Detach(p); err != nil {
				return res, err
			}
		}
		ctx.Compute(12_000) // think time between requests
		// Let the hardware sweep run between rounds.
		rt.Sweep(ctx)
	}
	return res, nil
}
