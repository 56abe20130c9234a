// Package params holds the simulation parameters of the TERP evaluation
// (Table II of the paper) and the scheme configurations used throughout the
// repository (MM, TM, TT and the Figure 11 ablations).
//
// All times are expressed in cycles of the simulated 2.2 GHz core. The
// helpers Micros and Cycles convert between microseconds and cycles.
package params

import (
	"fmt"
	"math"
)

// Cycle counts and machine geometry from Table II of the paper.
const (
	// CyclesPerMicro is the clock rate of one simulated core: 2.2 GHz
	// means 2200 cycles per microsecond.
	CyclesPerMicro = 2200

	// Cores is the number of simulated cores (4-core CMP in the paper).
	Cores = 4

	// DRAMLatency is the access latency of DRAM in cycles.
	DRAMLatency = 120
	// NVMLatency is the access latency of persistent memory in cycles.
	NVMLatency = 360

	// L1Latency and L2Latency are cache access times in cycles.
	L1Latency = 1
	L2Latency = 8

	// L1DSize, L1DWays: private L1 data cache, 8-way, 32 KB.
	L1DSize = 32 << 10
	L1DWays = 8
	// L2Size, L2Ways: shared L2, 16-way, 1 MB.
	L2Size = 1 << 20
	L2Ways = 16
	// LineSize is the cache line size in bytes.
	LineSize = 64

	// L1TLBEntries, L1TLBWays: L1 data TLB, 4 KB pages, 4-way, 64
	// entries, 1-cycle access.
	L1TLBEntries = 64
	L1TLBWays    = 4
	L1TLBLatency = 1
	// L2TLBEntries, L2TLBWays: 6-way, 1536 entries, 4-cycle access.
	L2TLBEntries = 1536
	L2TLBWays    = 6
	L2TLBLatency = 4
	// TLBMissPenalty is the page-walk penalty in cycles.
	TLBMissPenalty = 30

	// PageSize is the virtual memory page size.
	PageSize = 4 << 10
	// PageShift is log2(PageSize).
	PageShift = 12

	// PermMatrixCheck is the cost of a permission matrix check or
	// update (1 cycle, overlapped after the TLB lookup).
	PermMatrixCheck = 1

	// SilentCondCost is the cost of a conditional attach/detach that is
	// lowered to a thread permission change (average Intel MPK PKRU
	// write including fences, microbenchmarked in the paper).
	SilentCondCost = 27

	// AttachSyscall is the cost of a full attach() system call.
	AttachSyscall = 4422
	// DetachSyscall is the cost of a full detach() system call.
	DetachSyscall = 3058
	// RandomizeCost is the cost of a PMO space-layout randomization.
	RandomizeCost = 3718
	// TLBInvalidate is the cost of a TLB invalidation (shootdown).
	TLBInvalidate = 550

	// SweepPeriod is the period of the circular-buffer timer sweep:
	// the timer increments at 1 us granularity.
	SweepPeriod = 1 * CyclesPerMicro

	// CircularBufferEntries is the number of circular buffer entries in
	// the TERP hardware (32 entries x 34 bits = 140 bytes on chip).
	CircularBufferEntries = 32
)

// Micros converts a number of microseconds to simulated cycles. For a
// whole number of microseconds up to 2^53/CyclesPerMicro (about 4.1e12)
// the product is an integer a float64 holds exactly, so the conversion is
// exact. Past about 8.4e15 us the product leaves uint64's range, and Go
// leaves the result of such a conversion to the platform; CheckEW keeps
// every EW target far below both limits.
func Micros(us float64) uint64 { return uint64(us * CyclesPerMicro) }

// ToMicros converts simulated cycles to microseconds.
func ToMicros(cycles uint64) float64 { return float64(cycles) / CyclesPerMicro }

// Default exposure window targets used in the evaluation.
const (
	// DefaultEWMicros is the default process-level exposure window
	// target (40 us).
	DefaultEWMicros = 40
	// DefaultTEWMicros is the default thread exposure window target
	// (2 us).
	DefaultTEWMicros = 2
	// MinEWMicros is the shortest exposure window target CheckEW
	// accepts: the TEW target, which every TERP window must hold anyway.
	// It lies just above the stall an expired window's randomization
	// charges (RandomizeCost + TLBInvalidate, about 1.94 us). Under a
	// shorter EW that stall already passes the next deadline, so a
	// single-thread Compute sweeps again and again and never finishes.
	MinEWMicros = DefaultTEWMicros
	// MaxEWMicros is the longest exposure window target CheckEW accepts:
	// 1e9 us, that is 1,000 s or 2.2e12 cycles. The value is a round
	// number far beyond any window the evaluation uses (the EW sweep
	// stops at a few hundred microseconds) and far below the
	// 2^53/CyclesPerMicro (about 4.1e12 us) up to which Micros converts a
	// whole number of microseconds exactly.
	MaxEWMicros = 1e9
)

// CheckEW reports whether ewMicros is an exposure window target a run
// accepts: a finite number of at least MinEWMicros and at most
// MaxEWMicros. It is the one EW rule: terp.Options, the sweep points of
// an experiment spec, terpsim -ew and terpc -ew all check it here. The
// error starts with the value, so a caller prefixes the name of its
// input.
func CheckEW(ewMicros float64) error {
	var why string
	switch {
	case math.IsNaN(ewMicros) || math.IsInf(ewMicros, 0):
		why = "is not a finite number"
	case ewMicros < MinEWMicros:
		why = fmt.Sprintf("is below the %g us minimum", float64(MinEWMicros))
	case ewMicros > MaxEWMicros:
		why = fmt.Sprintf("is above the %g us maximum", float64(MaxEWMicros))
	default:
		return nil
	}
	return fmt.Errorf("%g %s: an exposure window target is a finite number of at least %g us and at most %g us",
		ewMicros, why, float64(MinEWMicros), float64(MaxEWMicros))
}

// CheckTEW reports whether tewMicros is a thread exposure window target
// that fits the EW target ewMicros: a finite number from 0 (no thread
// windows) up to ewMicros, since every thread window lies inside a
// process window. Like CheckEW, its error starts with the value.
func CheckTEW(tewMicros, ewMicros float64) error {
	var why string
	switch {
	case math.IsNaN(tewMicros) || math.IsInf(tewMicros, 0):
		why = "is not a finite number"
	case tewMicros < 0:
		why = "is negative"
	case tewMicros > ewMicros:
		why = fmt.Sprintf("exceeds the %g us EW target", ewMicros)
	default:
		return nil
	}
	return fmt.Errorf("%g %s: a thread exposure window target is a finite number from 0 up to the EW target, since its windows must fit inside the process window",
		tewMicros, why)
}

// Scheme identifies one protection configuration evaluated in the paper.
type Scheme int

// The schemes of Section VI (Configurations) and the Figure 11 ablations.
const (
	// Unprotected runs the workload with no attach/detach protection at
	// all; it is the baseline all overheads are measured against.
	Unprotected Scheme = iota
	// MM is MERR insertion on the MERR architecture: manually inserted
	// attach/detach executed fully as system calls, EW target 40 us,
	// process-wide semantics, no thread exposure windows.
	MM
	// TM is TERP compiler insertion on the MERR architecture:
	// automatically inserted conditional attach/detach with EW and TEW
	// targets, but every conditional call is executed fully as a system
	// call (no TERP hardware).
	TM
	// TT is TERP insertion on the TERP architecture: conditional
	// attach/detach with window combining via the circular buffer.
	TT
	// BasicSem is the Figure 11 ablation that runs the TERP insertion
	// under the Basic semantics: at most one thread may have a PMO
	// attached; other threads block until it is detached.
	BasicSem
	// PlusCond is the Figure 11 ablation with conditional instructions
	// (EW-conscious semantics, thread permissions) but without the
	// circular buffer (no window combining: a final detach is real).
	PlusCond
	// PlusCB is the full design: PlusCond plus circular buffer window
	// combining. It is equivalent to TT and present so ablation sweeps
	// can name it explicitly.
	PlusCB
)

// String returns the name used for the scheme in the paper's tables.
func (s Scheme) String() string {
	switch s {
	case Unprotected:
		return "base"
	case MM:
		return "MM"
	case TM:
		return "TM"
	case TT:
		return "TT"
	case BasicSem:
		return "Basic"
	case PlusCond:
		return "+Cond"
	case PlusCB:
		return "+CB"
	default:
		return "unknown"
	}
}

// Config is a full protection configuration for one simulated run.
type Config struct {
	// Scheme selects the protection scheme.
	Scheme Scheme
	// EWTarget is the process-level maximum exposure window in cycles.
	EWTarget uint64
	// TEWTarget is the thread exposure window target in cycles. Zero
	// disables thread-level windows (as in MM).
	TEWTarget uint64
	// Randomize enables PMO space layout randomization at every real
	// attach and at expired-but-held windows.
	Randomize bool
	// Seed seeds the deterministic random number generator.
	Seed int64
}

// NewConfig returns the standard configuration for a scheme with the given
// EW target in microseconds, following Section VI: TEW is 2 us for all
// TERP-insertion schemes and disabled for MM, and randomization is always
// on (both MERR and TERP randomize at reattach).
func NewConfig(s Scheme, ewMicros float64) Config {
	c := Config{
		Scheme:    s,
		EWTarget:  Micros(ewMicros),
		TEWTarget: Micros(DefaultTEWMicros),
		Randomize: true,
		Seed:      1,
	}
	if s == MM || s == Unprotected {
		c.TEWTarget = 0
	}
	return c
}

// UsesCircularBuffer reports whether the scheme has the TERP hardware
// circular buffer (window combining).
func (c Config) UsesCircularBuffer() bool {
	switch c.Scheme {
	case TT, PlusCB:
		return true
	}
	return false
}

// CondIsSyscall reports whether conditional attach/detach calls are
// executed fully as system calls (the TM configuration and the Basic
// ablation, which have no TERP hardware support).
func (c Config) CondIsSyscall() bool {
	return c.Scheme == TM || c.Scheme == BasicSem
}
