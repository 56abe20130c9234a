package litmus

import (
	"math/rand"
	"testing"
)

// fuzzMaxOps bounds a decoded program, as genMaxOps bounds a generated one.
const fuzzMaxOps = 12

// decodeProgram turns fuzz bytes into a litmus program. The first byte
// picks a window of 1 to 4 lines; then each pair of bytes (a, c) is one op,
// up to fuzzMaxOps of them. a%8 picks the kind: 0-3 a store, 4-5 a flush,
// 6-7 a fence.
//   - A store writes 1+(a>>3)%8 bytes at window offset c%window, so it may
//     be partial, straddle two lines or run past the window's end. Its
//     value (a>>6) is a fresh one (0 and 1), the previous store's (2) or
//     zero (3), so stores may be silent.
//   - A flush covers the whole line of offset c%window when bit 3 of a is
//     clear, and else 1+(a>>4)*16 bytes from that offset, cut at the
//     window's end, which may span lines.
func decodeProgram(data []byte) Program {
	p := Program{Name: "fuzz", Lines: 1}
	if len(data) == 0 {
		return p
	}
	p.Lines += int(data[0] % genMaxLines)
	window := uint64(p.Lines) * LineSize
	var val, fresh uint64
	for data = data[1:]; len(data) >= 2 && len(p.Ops) < fuzzMaxOps; data = data[2:] {
		a, c := data[0], uint64(data[1])
		switch a % 8 {
		case 0, 1, 2, 3:
			switch a >> 6 {
			case 0, 1:
				fresh++
				val = scramble(fresh)
			case 3:
				val = 0
			}
			p.Ops = append(p.Ops, StAt(c%window, 1+uint64(a>>3)%8, val))
		case 4, 5:
			off := c % window
			if a&8 == 0 {
				p.Ops = append(p.Ops, FlAt(off/LineSize*LineSize, LineSize))
			} else {
				p.Ops = append(p.Ops, FlAt(off, min(1+uint64(a>>4)*16, window-off)))
			}
		default:
			p.Ops = append(p.Ops, Sf())
		}
	}
	return p
}

// encodeProgram returns bytes that decodeProgram turns into a program of
// p's shape: its window and its ops' kinds, offsets and lengths, with a
// fresh value for every store. It seeds the fuzzer's corpus.
func encodeProgram(p Program) []byte {
	b := []byte{byte(p.Lines - 1)}
	for _, op := range p.Ops[:min(len(p.Ops), fuzzMaxOps)] {
		switch {
		case op.Kind == OpStore:
			b = append(b, byte(op.Len-1)<<3, byte(op.Off))
		case op.Kind == OpFlush && op.Off%LineSize == 0 && op.Len == LineSize:
			b = append(b, 4, byte(op.Off))
		case op.Kind == OpFlush:
			b = append(b, 4|8|byte((op.Len-1)/16)<<4, byte(op.Off))
		default:
			b = append(b, 6, 0)
		}
	}
	return b
}

// FuzzLitmusProgram checks the persist-buffer model against the Px86
// oracle on programs the fuzzer writes (see decodeProgram): RunProgram
// either rejects a program or finds no state the model reaches and the
// oracle forbids, and no other divergence outside the default allowlist.
func FuzzLitmusProgram(f *testing.F) {
	for _, p := range Named() {
		f.Add(encodeProgram(p))
	}
	for _, p := range Generate(1, 16) {
		f.Add(encodeProgram(p))
	}
	r := rand.New(rand.NewSource(1))
	for range 8 {
		b := make([]byte, 1+2*fuzzMaxOps)
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProgram(data)
		res, err := RunProgram(p, DefaultAllowlist())
		if err != nil {
			return // rejected: an op outside the window, or past a cap
		}
		if res.ModelOnly != 0 || res.Violations != 0 {
			t.Fatalf("%d lines, ops %+v: %d model-only states, %d violations %+v",
				p.Lines, p.Ops, res.ModelOnly, res.Violations, res.Diverged)
		}
	})
}
