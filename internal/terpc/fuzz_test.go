package terpc

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
)

// FuzzCompileInsert drives the compiler pipeline on arbitrary TPL source:
// lang.Compile, then Insert at a MERR and a TERP threshold. A program that
// fails to compile or to insert ends the case. One that gets through must
// leave every function passing Verify and must link. Nothing may panic.
func FuzzCompileInsert(f *testing.F) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 16; i++ {
		f.Add(genProgram(r))
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, opt := range []Options{
			{EWThreshold: 88000},                     // MERR single-level
			{EWThreshold: 88000, TEWThreshold: 4400}, // TERP two-level
		} {
			prog, err := lang.Compile(src)
			if err != nil {
				return
			}
			if _, err := Insert(prog, opt); err != nil {
				return
			}
			for name, fn := range prog.Funcs {
				if err := Verify(fn, nil); err != nil {
					t.Fatalf("opt %+v: verify %s: %v\n%s", opt, name, err, fn)
				}
			}
			if _, err := ir.Link(prog); err != nil {
				t.Fatalf("opt %+v: link: %v", opt, err)
			}
		}
	})
}
