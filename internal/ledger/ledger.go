package ledger

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// Options tunes a Ledger.
type Options struct {
	// MaxBytes rotates the active file to <path>.1 (replacing any
	// previous rotation) before an append would push it past this
	// size; <= 0 disables rotation.
	MaxBytes int64
}

// Ledger is the append-only JSONL run store. Crash safety comes from
// the format, not from fsync choreography: every record is a single
// buffered line written in one call on an O_APPEND descriptor, and
// readers tolerate a torn or malformed trailing line (a crash mid-
// append loses at most the record being written, never the history
// before it).
type Ledger struct {
	path string
	opt  Options

	mu   sync.Mutex
	f    *os.File
	size int64
}

// Open opens (creating if needed) the ledger at path.
func Open(path string, opt Options) (*Ledger, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: stat: %w", err)
	}
	return &Ledger{path: path, opt: opt, f: f, size: st.Size()}, nil
}

// rotatedPath is the single rotated generation kept next to the
// active file at path.
func rotatedPath(path string) string { return path + ".1" }

// buildID is the toolchain stamp Append writes into records that
// carry none.
var buildID = runtime.Version()

// Append stamps and writes one record as a single JSONL line. It
// fills Schema, Time and Build when the caller left them zero; the
// record is otherwise written as given.
func (l *Ledger) Append(r Record) error {
	if r.Schema == 0 {
		r.Schema = SchemaVersion
	}
	if r.Time == "" {
		r.Time = time.Now().UTC().Format(time.RFC3339)
	}
	if r.Build == "" {
		r.Build = buildID
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("ledger: encoding record: %w", err)
	}
	line = append(line, '\n')

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("ledger: closed")
	}
	if l.opt.MaxBytes > 0 && l.size > 0 && l.size+int64(len(line)) > l.opt.MaxBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := l.f.Write(line)
	l.size += int64(n)
	if err != nil {
		return fmt.Errorf("ledger: appending record: %w", err)
	}
	return nil
}

// rotateLocked moves the active file to the rotated path and starts a
// fresh one; l.mu held.
func (l *Ledger) rotateLocked() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("ledger: rotate close: %w", err)
	}
	if err := os.Rename(l.path, rotatedPath(l.path)); err != nil {
		return fmt.Errorf("ledger: rotate rename: %w", err)
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: rotate reopen: %w", err)
	}
	l.f, l.size = f, 0
	return nil
}

// Records reads the full history in append order — the rotated
// generation (if any) first, then the active file — and the count of
// lines skipped (torn trailing writes, malformed lines, records from
// a future schema).
func (l *Ledger) Records() ([]Record, int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return readHistory(l.path)
}

// Read reads a ledger file (and its rotated sibling <path>.1, if
// present) without opening it for appends — the terpreport -trend
// path. Unlike an open Ledger's history, a ledger with neither file is
// an error.
func Read(path string) ([]Record, int, error) {
	out, skipped, err := readHistory(path)
	if err == nil && out == nil && skipped == 0 {
		if _, err := os.Stat(path); err != nil {
			return nil, 0, fmt.Errorf("ledger: %w", err)
		}
	}
	return out, skipped, err
}

// readHistory reads the ledger at path in append order, the rotated
// generation first, and counts the lines it skipped.
func readHistory(path string) ([]Record, int, error) {
	var out []Record
	skipped := 0
	for _, p := range []string{rotatedPath(path), path} {
		recs, sk, err := readFile(p)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, recs...)
		skipped += sk
	}
	return out, skipped, nil
}

// readFile parses one JSONL file; a missing file is an empty history.
func readFile(path string) ([]Record, int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("ledger: read open: %w", err)
	}
	defer f.Close()
	var out []Record
	skipped := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil || r.Schema > SchemaVersion || r.Schema <= 0 {
			// Torn trailing write, hand-mangled line, or a record from
			// a newer build: skip rather than fail the whole history.
			skipped++
			continue
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		return nil, 0, fmt.Errorf("ledger: scanning %s: %w", path, err)
	}
	return out, skipped, nil
}

// Compact rewrites the history keeping only the most recent keep
// records per spec hash, folds the rotated generation back in, and
// removes it. The rewrite goes through a temp file + rename so a
// crash mid-compaction leaves either the old or the new history,
// never a partial one.
func (l *Ledger) Compact(keep int) error {
	if keep <= 0 {
		return fmt.Errorf("ledger: compact keep must be positive, got %d", keep)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("ledger: closed")
	}
	all, _, err := readHistory(l.path)
	if err != nil {
		return err
	}
	// Count per key, then emit each record only once its key is within
	// the final keep window — preserving append order.
	total := map[string]int{}
	for _, r := range all {
		total[r.SpecHash]++
	}
	seen := map[string]int{}
	var kept []Record
	for _, r := range all {
		seen[r.SpecHash]++
		if total[r.SpecHash]-seen[r.SpecHash] < keep {
			kept = append(kept, r)
		}
	}

	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: compact open: %w", err)
	}
	w := bufio.NewWriter(f)
	var size int64
	for _, r := range kept {
		line, err := json.Marshal(r)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("ledger: compact encode: %w", err)
		}
		n, err := w.Write(append(line, '\n'))
		size += int64(n)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("ledger: compact write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ledger: compact flush: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ledger: compact close: %w", err)
	}
	l.f.Close()
	if err := os.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("ledger: compact rename: %w", err)
	}
	os.Remove(rotatedPath(l.path))
	nf, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: compact reopen: %w", err)
	}
	l.f, l.size = nf, size
	return nil
}

// Close releases the file; further Appends fail.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
