package terp

import (
	"context"
	"testing"

	"repro/internal/params"
	"repro/internal/runner"
	"repro/internal/sim"
)

// accountingExceptions are the cells known to break an accounting
// invariant, each with its exact discrepancy (accounted minus expected
// cycles) at the cells TestAccountingInvariants runs. Each is a
// documented grid error:
//   - ctree's load phase charges 12,779,520 Base cycles that
//     Result.Cycles, measured from the end of set-up, leaves out;
//   - a machine self-detach charges each thread an equal share of its
//     cost, and a finished thread's share is never charged.
var accountingExceptions = map[string]int64{
	"table3/ctree/MM(40us)":   12_779_520,
	"table3/ctree/TT(40us)":   12_779_520,
	"fig9/ctree/base":         12_779_520,
	"fig9/ctree/MM(40us)":     12_779_520,
	"fig9/ctree/TM(40us)":     12_779_520,
	"fig9/ctree/TT(40us)":     12_779_520,
	"fig9/ctree/TT(80us)":     12_779_520,
	"fig9/ctree/TT(160us)":    12_779_520,
	"table6/ctree/MM(40us)":   12_779_520,
	"table6/ctree/TT(40us)":   12_779_520,
	"fig11/imagick/+CB(40us)": -2_706,
	"fig11/xz/+CB(40us)":      -10_824,
	"fig11/xz/TT(80us)":       -10_824,
}

// TestAccountingInvariants checks two cost-accounting rules, at 2,000
// ops and seed 1, over the cells of every single-thread experiment and
// fig11's TT and +CB cells:
//   - a single-thread cell's accounts sum to its cycles;
//   - a TT or +CB cell's Detach account is its detach system calls times
//     the cost of one, a system call plus a TLB invalidation.
//
// Every cell must hold both, except the cells of accountingExceptions,
// which must miss by exactly the listed cycles.
func TestAccountingInvariants(t *testing.T) {
	o := ExpOpts{Ops: 2000, Seed: 1}.withDefaults()
	var cells []runner.Cell
	for _, cs := range [][]runner.Cell{
		table3Cells("table3", o), figure9Cells(o), table4Cells("table4", o),
		figure10Cells(o), table6Cells(o),
	} {
		cells = append(cells, cs...)
	}
	single := len(cells)
	for _, c := range figure11Cells(o) {
		if c.Scheme == TT || c.Scheme == PlusCB {
			cells = append(cells, c)
		}
	}
	pool := runner.NewPool(2)
	defer pool.Close()
	res, err := pool.Run(context.Background(), cells, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for i, r := range res {
		var off int64
		if i < single {
			off = int64(r.Result.Costs.Total()) - int64(r.Result.Cycles)
		} else {
			detach := r.Result.Counts.DetachSyscalls * (params.DetachSyscall + params.TLBInvalidate)
			off = int64(r.Result.Costs[sim.Detach]) - int64(detach)
		}
		want, listed := accountingExceptions[r.Cell.Name()]
		if listed {
			seen++
		}
		if off != want {
			t.Errorf("%s: accounted %+d cycles off, want %+d", r.Cell.Name(), off, want)
		}
	}
	if seen != len(accountingExceptions) {
		t.Errorf("ran %d of the %d listed exceptions", seen, len(accountingExceptions))
	}
}
