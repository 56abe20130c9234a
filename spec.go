package terp

// The versioned wire format. One JSON schema for ExperimentSpec and
// Grid is shared byte-for-byte by every surface that moves specs or
// results between processes: `terpbench -spec`/-json, `terpreport -in`,
// the terpd job API and its loadgen client. Versioning is strict — a
// document from a different schema generation is rejected with a clear
// error instead of being half-understood.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/runner"
)

// WireVersion is the wire-format generation this build speaks. Specs
// and grids carry it in their "version" field; bump it whenever the
// JSON schema changes incompatibly (renamed fields, changed units,
// removed payloads), never for purely additive evolution.
const WireVersion = 1

// ParseSpec decodes the JSON wire form of an ExperimentSpec and
// validates it: the version must be absent (meaning current) or
// WireVersion, the experiment must exist, the scaling knobs must be
// sane, and unknown fields are rejected so schema drift surfaces as an
// error rather than as silently ignored settings.
func ParseSpec(data []byte) (ExperimentSpec, error) {
	var spec ExperimentSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return ExperimentSpec{}, fmt.Errorf("terp: parsing spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return ExperimentSpec{}, err
	}
	return spec, nil
}

// Validate reports whether the spec is runnable by this build. The
// zero Version is valid (it means "current").
func (s ExperimentSpec) Validate() error {
	if s.Version != 0 && s.Version != WireVersion {
		return fmt.Errorf("terp: unsupported spec version %d (this build speaks version %d)",
			s.Version, WireVersion)
	}
	if _, ok := findExperiment(s.Name); !ok {
		return fmt.Errorf("terp: unknown experiment %q (valid: %s)",
			s.Name, strings.Join(Experiments(), ", "))
	}
	if s.Opts.Ops < 0 {
		return fmt.Errorf("terp: negative ops %d", s.Opts.Ops)
	}
	if s.Opts.Scale < 0 {
		return fmt.Errorf("terp: negative scale %d", s.Opts.Scale)
	}
	for _, ew := range s.EWMicros {
		if math.IsNaN(ew) || math.IsInf(ew, 0) || ew <= 0 {
			return fmt.Errorf("terp: ewMicros sweep point %v is not a positive finite window", ew)
		}
	}
	return nil
}

// JSON renders the spec in wire form with the current version stamped.
func (s ExperimentSpec) JSON() ([]byte, error) {
	s.Version = WireVersion
	return json.MarshalIndent(s, "", "  ")
}

// Cells returns the simulation cells the spec enumerates, in run order
// (none for pure-analysis experiments). Schedulers use the count to size
// queues and progress displays before any cell has run; tests use the
// cells to check the engine one cell at a time.
func (s ExperimentSpec) Cells() ([]runner.Cell, error) {
	e, ok := findExperiment(s.Name)
	if !ok {
		return nil, fmt.Errorf("terp: unknown experiment %q (valid: %s)",
			s.Name, strings.Join(Experiments(), ", "))
	}
	if e.cells == nil {
		return nil, nil
	}
	s.Opts = s.Opts.withDefaults()
	return e.cells(s), nil
}

// ParseGrids parses a grid document — the `terpbench -json` array form
// that BENCH_*.json baselines, `terpreport -in` inputs and terpd
// result fetches all share — rejecting grids from an unknown wire
// version. Version 0 (absent) is accepted for documents written before
// grids were stamped.
func ParseGrids(data []byte) ([]*Grid, error) {
	var grids []*Grid
	if err := json.Unmarshal(data, &grids); err != nil {
		return nil, fmt.Errorf("terp: parsing grids: %w", err)
	}
	for i, g := range grids {
		if g == nil {
			return nil, fmt.Errorf("terp: grid %d is null", i)
		}
		if g.Version != 0 && g.Version != WireVersion {
			return nil, fmt.Errorf("terp: grid %d (%s): unsupported version %d (this build speaks version %d)",
				i, g.Name, g.Version, WireVersion)
		}
	}
	return grids, nil
}

// ParseGrid parses a single grid in wire form (a terpd result fetch).
func ParseGrid(data []byte) (*Grid, error) {
	var g Grid
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("terp: parsing grid: %w", err)
	}
	if g.Version != 0 && g.Version != WireVersion {
		return nil, fmt.Errorf("terp: grid %s: unsupported version %d (this build speaks version %d)",
			g.Name, g.Version, WireVersion)
	}
	return &g, nil
}
