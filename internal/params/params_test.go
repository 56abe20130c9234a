package params

import (
	"math"
	"strings"
	"testing"
)

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
		s            Scheme
		cb, syscalls bool
	}
	rows := []row{
		{Unprotected, false, false},
		{MM, false, false},
		{TM, false, true},
		{TT, true, false},
		{BasicSem, false, true},
		{PlusCond, false, false},
		{PlusCB, true, false},
	}
	for _, r := range rows {
		c := NewConfig(r.s, 40)
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

// TestCheckEW pins the one EW rule: a finite target from MinEWMicros to
// MaxEWMicros, both ends included.
func TestCheckEW(t *testing.T) {
	for _, tc := range []struct {
		ew   float64
		want string // "" when the target is accepted
	}{
		{math.NaN(), "NaN is not a finite number"},
		{math.Inf(1), "+Inf is not a finite number"},
		{math.Inf(-1), "-Inf is not a finite number"},
		{-5, "-5 is below the 2 us minimum"},
		{0, "0 is below the 2 us minimum"},
		{1.9, "1.9 is below the 2 us minimum"},
		{2, ""},
		{DefaultEWMicros, ""},
		{MaxEWMicros, ""},
		{math.Nextafter(MaxEWMicros, math.Inf(1)), "is above the 1e+09 us maximum"},
		{2 * MaxEWMicros, "2e+09 is above the 1e+09 us maximum"},
		{1e300, "1e+300 is above the 1e+09 us maximum"},
	} {
		err := CheckEW(tc.ew)
		if tc.want == "" && err != nil {
			t.Errorf("CheckEW(%g) = %v, want nil", tc.ew, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("CheckEW(%g) = %v, want an error with %q", tc.ew, err, tc.want)
		}
	}
}

// TestCheckTEW pins the TEW rule: a finite target from 0 up to the EW
// target, both ends included.
func TestCheckTEW(t *testing.T) {
	for _, tc := range []struct {
		tew, ew float64
		want    string
	}{
		{math.NaN(), 40, "NaN is not a finite number"},
		{math.Inf(1), 40, "+Inf is not a finite number"},
		{math.Inf(-1), 40, "-Inf is not a finite number"},
		{-3, 40, "-3 is negative"},
		{0, 40, ""},
		{DefaultTEWMicros, 40, ""},
		{40, 40, ""},
		{40.5, 40, "40.5 exceeds the 40 us EW target"},
		{1e300, MaxEWMicros, "1e+300 exceeds the 1e+09 us EW target"},
	} {
		err := CheckTEW(tc.tew, tc.ew)
		if tc.want == "" && err != nil {
			t.Errorf("CheckTEW(%g, %g) = %v, want nil", tc.tew, tc.ew, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("CheckTEW(%g, %g) = %v, want an error with %q", tc.tew, tc.ew, err, tc.want)
		}
	}
}

// TestMaxEWConvertsExactly: the longest accepted EW target converts to
// cycles exactly, well inside the range where a float64 holds every
// integer.
func TestMaxEWConvertsExactly(t *testing.T) {
	if MaxEWMicros*CyclesPerMicro >= 1<<53 {
		t.Fatalf("MaxEWMicros = %g us is %g cycles, past 2^53", float64(MaxEWMicros), float64(MaxEWMicros*CyclesPerMicro))
	}
	if got, want := Micros(MaxEWMicros), uint64(MaxEWMicros)*CyclesPerMicro; got != want {
		t.Fatalf("Micros(MaxEWMicros) = %d, want %d", got, want)
	}
}
