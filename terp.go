// Package terp is the public API of the TERP reproduction: temporal
// exposure reduction protection for persistent memory (HPCA 2022).
//
// TERP reduces the time a persistent memory object (PMO) is accessible.
// A System hosts PMOs on a simulated NVM device and enforces one of the
// paper's protection schemes on every attach, detach, load and store:
//
//   - MM — the MERR baseline: manually bracketed attach/detach executed
//     fully as system calls, process-wide semantics.
//   - TM — TERP's compiler insertion on the MERR architecture: every
//     conditional attach/detach still costs a system call.
//   - TT — the full TERP design: EW-conscious semantics, thread exposure
//     windows via MPK-style thread permissions, and the circular-buffer
//     window combining hardware (CONDAT/CONDDT).
//
// The quickstart is:
//
//	sys, _ := terp.NewSystem(terp.Options{Scheme: terp.TT})
//	p, _ := sys.Create("mydata", 1<<20)
//	sys.Attach(p, terp.ReadWrite)
//	oid, _ := p.Alloc(64)
//	sys.Store(oid, 42)
//	sys.Detach(p)
//
// Everything the paper's evaluation reports is regenerated by Run, one
// ExperimentSpec per table or figure (see Experiments), and by
// `go test -bench=.`.
package terp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expo"
	"repro/internal/nvm"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/sim"
	"repro/internal/txn"
)

// Re-exported scheme identifiers (see params.Scheme).
const (
	// Unprotected runs with no temporal protection (the baseline).
	Unprotected = params.Unprotected
	// MM is MERR insertion on the MERR architecture.
	MM = params.MM
	// TM is TERP insertion on the MERR architecture.
	TM = params.TM
	// TT is TERP insertion on the TERP architecture.
	TT = params.TT
	// BasicSem, PlusCond and PlusCB are the Figure 11 ablations.
	BasicSem = params.BasicSem
	// PlusCond enables conditional instructions without window combining.
	PlusCond = params.PlusCond
	// PlusCB enables the circular buffer as well (equivalent to TT).
	PlusCB = params.PlusCB
)

// Permission constants for Attach.
const (
	// Read permits loads.
	Read = paging.PermRead
	// Write permits stores.
	Write = paging.PermWrite
	// ReadWrite permits both.
	ReadWrite = paging.ReadWrite
)

// Convenient aliases of the core types a System hands out.
type (
	// Scheme selects a protection configuration.
	Scheme = params.Scheme
	// Perm is an access permission bitmask.
	Perm = paging.Perm
	// PMO is a persistent memory object handle.
	PMO = pmo.PMO
	// OID is a relocatable persistent pointer (pool, offset).
	OID = pmo.OID
	// Result is a finished run's measurements.
	Result = core.Result
	// ExposureStats summarizes exposure windows (EW/TEW/ER/TER).
	ExposureStats = expo.Stats
	// Fault is a protection fault raised on a load or store.
	Fault = core.Fault
)

// Options configures a System.
type Options struct {
	// Scheme is the protection scheme (default TT).
	Scheme Scheme
	// EWMicros is the exposure window target in microseconds
	// (default 40, the paper's primary setting; see params.CheckEW).
	EWMicros float64
	// TEWMicros is the thread exposure window target (default 2; see
	// params.CheckTEW; it is forced to 0 for MM and Unprotected, which
	// have no TEWs).
	TEWMicros float64
	// NVMBytes sizes the simulated persistent device (default 2 GB,
	// minimum 1 MB).
	NVMBytes uint64
	// Seed makes runs reproducible (default 1).
	Seed int64
}

// MinNVMBytes is the smallest accepted device size: the device must hold
// the namespace superblock plus at least one small PMO.
const MinNVMBytes = 1 << 20

func (o Options) withDefaults() Options {
	if o.EWMicros == 0 {
		o.EWMicros = params.DefaultEWMicros
	}
	if o.TEWMicros == 0 {
		o.TEWMicros = params.DefaultTEWMicros
	}
	if o.NVMBytes == 0 {
		o.NVMBytes = 2 << 30
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Validate reports whether the options describe a runnable system.
// Zero-valued fields are valid (they select the documented defaults);
// with defaults applied, the exposure targets must pass params.CheckEW
// and params.CheckTEW, and an explicit device size must be at least
// MinNVMBytes.
func (o Options) Validate() error {
	d := o.withDefaults()
	if err := params.CheckEW(d.EWMicros); err != nil {
		return fmt.Errorf("terp: EWMicros %w", err)
	}
	if err := params.CheckTEW(d.TEWMicros, d.EWMicros); err != nil {
		return fmt.Errorf("terp: TEWMicros %w", err)
	}
	if o.NVMBytes != 0 && o.NVMBytes < MinNVMBytes {
		return fmt.Errorf("terp: NVMBytes %d is below the %d-byte minimum (superblock plus one PMO)", o.NVMBytes, MinNVMBytes)
	}
	return nil
}

// config converts Options to the internal configuration.
func (o Options) config() params.Config {
	o = o.withDefaults()
	cfg := params.NewConfig(o.Scheme, o.EWMicros)
	cfg.Seed = o.Seed
	if cfg.TEWTarget != 0 {
		cfg.TEWTarget = params.Micros(o.TEWMicros)
	}
	return cfg
}

// System is one simulated protected process plus its persistent device.
// It exposes the Table I PMO API under the configured protection scheme.
// A System's methods drive a single main thread.
type System struct {
	opts Options
	dev  *nvm.Device
	mgr  *pmo.Manager
	rt   *core.Runtime
	main *core.ThreadCtx
}

// NewSystem builds a system with a fresh NVM device. Invalid options
// (see Options.Validate) are rejected rather than silently defaulted.
func NewSystem(opts Options) (*System, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	dev := nvm.NewDevice(nvm.NVM, opts.NVMBytes)
	return newSystemOn(opts, dev)
}

// newSystemOn builds a system over an existing device (Reboot path).
func newSystemOn(opts Options, dev *nvm.Device) (*System, error) {
	mgr := pmo.NewManager(dev)
	rt := core.NewRuntime(opts.config(), mgr)
	return &System{
		opts: opts,
		dev:  dev,
		mgr:  mgr,
		rt:   rt,
		main: rt.NewThread(sim.SingleThread()),
	}, nil
}

// Create makes a new PMO (Table I: PMO_create).
func (s *System) Create(name string, size uint64) (*PMO, error) {
	return s.mgr.Create(name, size, pmo.ModeRead|pmo.ModeWrite)
}

// Open reopens an existing PMO by name (Table I: PMO_open).
func (s *System) Open(name string) (*PMO, error) { return s.mgr.Open(name) }

// Attach maps (or conditionally attaches) the PMO for the main thread.
func (s *System) Attach(p *PMO, perm Perm) error { return s.main.Attach(p, perm) }

// Detach unmaps (or conditionally detaches) the PMO for the main thread.
func (s *System) Detach(p *PMO) error { return s.main.Detach(p) }

// Load reads a 64-bit word through the full protection path.
func (s *System) Load(o OID) (uint64, error) { return s.main.Load(o) }

// Store writes a 64-bit word through the full protection path.
func (s *System) Store(o OID, v uint64) error { return s.main.Store(o, v) }

// LoadBytes reads len(b) bytes starting at the object.
func (s *System) LoadBytes(o OID, b []byte) error { return s.main.LoadBytes(o, b) }

// StoreBytes writes b starting at the object.
func (s *System) StoreBytes(o OID, b []byte) error { return s.main.StoreBytes(o, b) }

// Compute charges n cycles of application work to the main thread.
func (s *System) Compute(n uint64) { s.main.Compute(n) }

// NowMicros returns the main thread's simulated time in microseconds.
func (s *System) NowMicros() float64 { return params.ToMicros(s.main.Now()) }

// NewTxn allocates a fresh undo log inside the PMO for crash-consistent
// updates; persistence costs are charged to the main thread.
func (s *System) NewTxn(p *PMO, capacity int) (*txn.Log, OID, error) {
	log, oid, err := txn.NewLog(p, capacity)
	if err != nil {
		return nil, pmo.NilOID, err
	}
	log.SetSink(s.main)
	return log, oid, nil
}

// OpenTxn reopens an existing undo log (after Reboot) so Recover can roll
// back an interrupted transaction.
func (s *System) OpenTxn(p *PMO, oid OID, capacity int) (*txn.Log, error) {
	log, err := txn.OpenLog(p, oid, capacity)
	if err != nil {
		return nil, err
	}
	log.SetSink(s.main)
	return log, nil
}

// Reboot simulates a crash and restart: volatile state (mappings,
// permissions, windows, caches) is lost; the NVM device contents persist.
// It returns a fresh System over the same device.
func (s *System) Reboot() (*System, error) {
	snap := s.dev.Snapshot()
	dev := nvm.NewDevice(nvm.NVM, s.dev.Size())
	dev.Restore(snap)
	return newSystemOn(s.opts, dev)
}

// Stats finalizes and returns the run's measurements (exposure windows,
// cost breakdown, operation counters) at the main thread's current time.
func (s *System) Stats() Result { return s.rt.Finish(s.main.Now()) }

// Principal identifies a user for namespace permission checks.
type Principal = pmo.Principal

// Root is the superuser principal.
const Root = pmo.Root

// SetUser makes the system run as the given principal: Open and Attach
// then enforce the PMO namespace permissions (owner and mode bits).
func (s *System) SetUser(u Principal) { s.rt.SetUser(u) }

// CreateAs makes a PMO owned by a principal with explicit mode bits.
func (s *System) CreateAs(owner Principal, name string, size uint64, mode pmo.Mode) (*PMO, error) {
	return s.mgr.CreateAs(owner, name, size, mode)
}

// OpenAs reopens a PMO with a namespace permission check for the
// principal.
func (s *System) OpenAs(who Principal, name string) (*PMO, error) {
	return s.mgr.OpenAs(who, name)
}

// Destroy removes a PMO from the namespace and shreds its contents
// (owner or Root only).
func (s *System) Destroy(who Principal, name string) error {
	return s.mgr.Destroy(who, name)
}
