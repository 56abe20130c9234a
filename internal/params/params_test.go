package params

import "testing"

func TestMicrosRoundTrip(t *testing.T) {
	if Micros(40) != 88000 {
		t.Fatalf("40us = %d cycles", Micros(40))
	}
	if ToMicros(88000) != 40 {
		t.Fatalf("88000 cycles = %f us", ToMicros(88000))
	}
	if Micros(0.5) != 1100 {
		t.Fatalf("0.5us = %d", Micros(0.5))
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		Unprotected: "base", MM: "MM", TM: "TM", TT: "TT",
		BasicSem: "Basic", PlusCond: "+Cond", PlusCB: "+CB",
	}
	for s, name := range want {
		if s.String() != name {
			t.Fatalf("%d.String() = %q want %q", s, s.String(), name)
		}
	}
	if Scheme(99).String() != "unknown" {
		t.Fatal("unknown scheme string")
	}
}

func TestNewConfigDefaults(t *testing.T) {
	c := NewConfig(TT, 40)
	if c.EWTarget != Micros(40) || c.TEWTarget != Micros(DefaultTEWMicros) {
		t.Fatalf("config = %+v", c)
	}
	if !c.Randomize || c.Seed == 0 {
		t.Fatalf("config = %+v", c)
	}
	// MM and Unprotected have no thread exposure windows.
	if NewConfig(MM, 40).TEWTarget != 0 {
		t.Fatal("MM has TEW")
	}
	if NewConfig(Unprotected, 40).TEWTarget != 0 {
		t.Fatal("baseline has TEW")
	}
}

func TestConfigPredicates(t *testing.T) {
	type row struct {
		s                       Scheme
		insertion, cb, syscalls bool
	}
	rows := []row{
		{Unprotected, false, false, false},
		{MM, false, false, false},
		{TM, true, false, true},
		{TT, true, true, false},
		{BasicSem, true, false, true},
		{PlusCond, true, false, false},
		{PlusCB, true, true, false},
	}
	for _, r := range rows {
		c := NewConfig(r.s, 40)
		if c.UsesTERPInsertion() != r.insertion {
			t.Fatalf("%v UsesTERPInsertion = %v", r.s, c.UsesTERPInsertion())
		}
		if c.UsesCircularBuffer() != r.cb {
			t.Fatalf("%v UsesCircularBuffer = %v", r.s, c.UsesCircularBuffer())
		}
		if c.CondIsSyscall() != r.syscalls {
			t.Fatalf("%v CondIsSyscall = %v", r.s, c.CondIsSyscall())
		}
	}
}

func TestTableIIConstants(t *testing.T) {
	// Pin the paper's Table II values so nobody changes them silently.
	if CyclesPerMicro != 2200 || DRAMLatency != 120 || NVMLatency != 360 {
		t.Fatal("memory latencies drifted from Table II")
	}
	if AttachSyscall != 4422 || DetachSyscall != 3058 ||
		RandomizeCost != 3718 || TLBInvalidate != 550 {
		t.Fatal("syscall costs drifted from Table II")
	}
	if SilentCondCost != 27 || PermMatrixCheck != 1 {
		t.Fatal("fast-path costs drifted from Table II")
	}
	if L1TLBEntries != 64 || L2TLBEntries != 1536 || TLBMissPenalty != 30 {
		t.Fatal("TLB geometry drifted from Table II")
	}
	if CircularBufferEntries != 32 {
		t.Fatal("circular buffer size drifted")
	}
}

// TestMinEWOutlastsRandomizationStall: the shortest accepted EW target
// is longer than the stall one expired window's randomization charges,
// so a single-thread run's next deadline always lies ahead of its clock.
func TestMinEWOutlastsRandomizationStall(t *testing.T) {
	if stall := uint64(RandomizeCost + TLBInvalidate); Micros(MinEWMicros) <= stall {
		t.Fatalf("MinEWMicros = %d cycles, not above the %d-cycle randomization stall", Micros(MinEWMicros), stall)
	}
}
