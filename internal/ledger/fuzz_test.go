package ledger

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	terp "repro"
	"repro/internal/obs"
)

// FuzzLedgerRead checks the ledger's read boundary: Read over arbitrary
// file bytes never panics and never fails, every record it returns has a
// schema in 1..SchemaVersion, and it accounts for every non-blank line as
// a record or a skipped line.
func FuzzLedgerRead(f *testing.F) {
	spec := terp.ExperimentSpec{Name: "table5", Opts: terp.ExpOpts{Ops: 100, Seed: 3}, Obs: obs.Config{Metrics: true}}
	g, err := terp.Run(spec)
	if err != nil {
		f.Fatal(err)
	}
	rec := FromGrid("terpbench", spec, g)
	line, err := json.Marshal(rec)
	if err != nil {
		f.Fatal(err)
	}
	rec.Schema = SchemaVersion + 1
	future, err := json.Marshal(rec)
	if err != nil {
		f.Fatal(err)
	}
	torn := line[:len(line)/2]
	f.Add(append(line, '\n'))
	f.Add(bytes.Join([][]byte{line, future, line}, []byte("\n")))
	f.Add(bytes.Join([][]byte{line, {}, torn}, []byte("\r\n")))

	// A fuzzing process runs its inputs one at a time, so they share one
	// file.
	path := filepath.Join(f.TempDir(), "runs.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, skipped, err := Read(path)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		for i, r := range recs {
			if r.Schema <= 0 || r.Schema > SchemaVersion {
				t.Fatalf("record %d has schema %d, outside 1..%d", i, r.Schema, SchemaVersion)
			}
		}
		lines := 0
		for _, l := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(l)) > 0 {
				lines++
			}
		}
		if len(recs)+skipped != lines {
			t.Fatalf("%d records and %d skipped lines from %d non-blank lines", len(recs), skipped, lines)
		}
	})
}
