package ir

import (
	"math"
	"testing"
)

// TestEval pins the IR's integer semantics, which both interpreter
// engines share through Eval.
func TestEval(t *testing.T) {
	for _, tc := range []struct {
		op   Op
		a, b int64
		want int64
	}{
		{Add, math.MaxInt64, 1, math.MinInt64},
		{Sub, 3, 5, -2},
		{Mul, -4, 6, -24},
		{Div, -7, 2, -3},
		{Div, 7, 0, 0},
		{Mod, -7, 2, -1},
		{Mod, 7, 0, 0},
		{And, 0b1100, 0b1010, 0b1000},
		{Or, 0b1100, 0b1010, 0b1110},
		{Xor, 0b1100, 0b1010, 0b0110},
		{Shl, 1, 3, 8},
		{Shl, 1, 67, 8},
		{Shl, 1, -1, math.MinInt64},
		{Shr, 16, 2, 4},
		{Shr, 16, 66, 4},
		{Shr, -8, 1, math.MaxInt64 - 3},
		{Shr, -1, 63, 1},
		{CmpEQ, 4, 4, 1},
		{CmpEQ, 4, 5, 0},
		{CmpNE, 4, 5, 1},
		{CmpNE, 4, 4, 0},
		{CmpLT, -1, 0, 1},
		{CmpLT, 0, 0, 0},
		{CmpLE, 0, 0, 1},
		{CmpLE, 1, 0, 0},
		{CmpGT, 0, -1, 1},
		{CmpGT, 0, 0, 0},
		{CmpGE, 0, 0, 1},
		{CmpGE, -1, 0, 0},
		{Const, 3, 4, 0},
		{LoadPM, 3, 4, 0},
		{Op(99), 3, 4, 0},
	} {
		if got := Eval(tc.op, tc.a, tc.b); got != tc.want {
			t.Errorf("Eval(%v, %d, %d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}
