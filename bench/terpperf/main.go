// Command terpperf is the repository's performance benchmark. It runs one
// workload for a fixed time and reports, end to end, its set-up time and
// the wall time, allocation and cell or job latency of each repetition.
// With --trace 1 it reports per-layer metrics instead: spans recorded
// around the benchmark's calls into each layer, and min-of-N timings of
// each layer driven on its own. Every grid it produces is checked against
// a reference digest. It prints every metric with its unit; the last line
// of its output is a JSON summary.
//
// From the repository root:
//
//	bash bench/run.sh --workload whisper-pm --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload spec-4t --trace 1 --trace-out trace.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	terp "repro"
	"repro/internal/ledger"
	"repro/internal/stats"
)

// metricDef names a metric and its unit. The smoke test checks these
// tables against BENCHMARK.json in both directions.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or of terpd sees.
// A request is what the user waits for: one grid, terp.Run plus
// Grid.JSON (batch workloads), or one served job (terpd-serve).
var endToEnd = []metricDef{
	{"setup_s", "s"},          // median of the run's set-ups
	{"requests_per_s", "1/s"}, // requests completed per second of repetitions
	{"latency_p50_ms", "ms"},  // median request latency
	{"latency_p90_ms", "ms"},  // 90th percentile request latency
	{"alloc_mb", "MB"},        // median bytes allocated per request
}

// perLayer are the traced pass's metrics, named after the module whose
// calls they time.
var perLayer = []metricDef{
	{"tracing_overhead_pct", "%"},
	{"terp.run_self_ms", "ms"},
	{"terp.marshal_ms", "ms"},
	{"runner.cell_ms", "ms"},
	{"runner.cell_setup_us", "us"},
	{"runner.cell_setup_kb", "KB"},
	{"runner.compile_ms", "ms"},
	{"runner.host_ns_per_cycle.whisper", "ns"},
	{"runner.host_ns_per_cycle.spec4t", "ns"},
	{"interp.kernel_ms", "ms"},
	{"sim.handoff_ns", "ns"},
	{"core.store_ns.tt", "ns"},
	{"core.store_ns.unprot", "ns"},
	{"core.cond_pair_ns.tt", "ns"},
	{"core.cond_pair_ns.mm", "ns"},
	{"paging.tlb_lookup_ns.hit", "ns"},
	{"paging.tlb_lookup_ns.miss", "ns"},
	{"nvm.cache_access_ns.fit", "ns"},
	{"nvm.cache_access_ns.spill", "ns"},
	{"nvm.device_rw_ns.fit", "ns"},
	{"nvm.device_rw_ns.spill", "ns"},
	{"nvm.persist_store_ns", "ns"},
	{"nvm.crash_image_us", "us"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.notify_ms", "ms"},
	{"service.grid_fetch_ms", "ms"},
	{"service.grid_get_us", "us"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("terpperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "seconds of repetitions to measure")
	trace := fs.Int("trace", 0, "1 runs the traced pass, which reports the per-layer metrics")
	jsonOut := fs.String("json", "", "write the detailed report (raw samples, counts, digests, host) to this file")
	traceOut := fs.String("trace-out", "", "with --trace 1, write the spans to this file as a Chrome trace Perfetto loads")
	golden := fs.String("golden", "bench/terpperf/testdata/golden.json", "file of seed-1 grid digests by spec hash")
	update := fs.Bool("update", false, "write this run's grid digests into the golden file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "terpperf: want --workload NAME [--seed N] [--seconds S] [--trace 0|1]")
		return 2
	}

	rep, tr, err := measure(options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, sizes: fullSizes})
	if err != nil {
		fmt.Fprintln(stderr, "terpperf:", err)
		return 1
	}
	if *update {
		err = updateGolden(*golden, rep.Digests)
	} else {
		err = checkGolden(*golden, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "terpperf:", err)
		return 1
	}
	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut, rep); err != nil {
			fmt.Fprintln(stderr, "terpperf:", err)
			return 1
		}
	}
	if *traceOut != "" && tr != nil {
		if err := writeTrace(*traceOut, tr); err != nil {
			fmt.Fprintln(stderr, "terpperf:", err)
			return 1
		}
	}
	if err := rep.print(stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "terpperf:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
}

// report is one run's outcome: the summary the last output line carries,
// plus the raw samples and provenance --json writes.
type report struct {
	Workload  string                       `json:"workload"`
	Seed      int64                        `json:"seed"`
	Seconds   float64                      `json:"seconds"`
	Trace     bool                         `json:"trace"`
	Host      host                         `json:"host"`
	Correct   bool                         `json:"correct"`
	Attempted int                          `json:"attempted"`
	Failed    int                          `json:"failed"`
	Metrics   map[string]metric            `json:"metrics"`
	Samples   map[string][]float64         `json:"samples"`
	Counts    map[string]map[string]uint64 `json:"counts,omitempty"`
	Digests   map[string]digestEntry       `json:"digests"`
	Problems  []string                     `json:"problems,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// digestEntry is the sha256 of one spec's Grid.JSON, keyed in reports
// and in the golden file by the run ledger's canonical spec hash.
type digestEntry struct {
	Spec   string `json:"spec"`
	SHA256 string `json:"sha256"`
}

// measurement collects one run's raw samples, operations and digests.
// The serve workload's tenants report into it concurrently.
type measurement struct {
	mu                      sync.Mutex
	setup, wall, tracedWall []float64 // s per set-up, per untraced and traced repetition
	latencies               []float64 // ms per untraced request
	alloc                   []float64 // MB per request, one value per untraced repetition
	runSelf, cell           []float64 // ms, from traced grids
	attempted, failed       int
	problems                []string
	digests                 map[string]digestEntry
	counts                  map[string]map[string]uint64
}

// op records one attempted operation and its failure, if any.
func (m *measurement) op(id string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.opLocked(id, err)
}

// request records the latency of one completed untraced request.
func (m *measurement) request(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.latencies = append(m.latencies, ms(d))
}

func (m *measurement) opLocked(id string, err error) {
	m.attempted++
	if err != nil {
		m.failed++
		m.problems = append(m.problems, fmt.Sprintf("%s: %v", id, err))
	}
}

// grid records a traced grid's layer samples and simulator counts. The
// counts are exact, so every traced run of one spec must repeat them.
func (m *measurement) grid(r gridRun, tr *tracer) {
	if tr == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	self := r.run
	for _, c := range r.cells {
		self -= c
		m.cell = append(m.cell, ms(c))
	}
	m.runSelf = append(m.runSelf, ms(self))
	if r.grid.Obs == nil || r.grid.Obs.Totals == nil {
		return
	}
	h, counts := ledger.SpecHash(r.spec), r.grid.Obs.Totals.Counters
	if prev, ok := m.counts[h]; ok {
		var err error
		if !maps.Equal(prev, counts) {
			err = fmt.Errorf("simulator counts differ between traced runs")
		}
		m.opLocked(r.spec.Name+" counts", err)
	}
	m.counts[h] = counts
}

func (m *measurement) digest(spec terp.ExperimentSpec, sha string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o := spec.Canonical().Opts
	m.digests[ledger.SpecHash(spec)] = digestEntry{
		Spec:   fmt.Sprintf("%s ops=%d scale=%d seed=%d", spec.Name, o.Ops, o.Scale, o.Seed),
		SHA256: sha,
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// measure runs one workload: its set-ups, then repetitions until the
// time is up, then, on the traced pass, the layer drivers.
func measure(o options) (*report, *tracer, error) {
	m := &measurement{digests: map[string]digestEntry{}, counts: map[string]map[string]uint64{}}
	w, err := newWorkload(o.workload, o.seed, o.sizes, m)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	for i := 0; i < o.sizes.setups; i++ {
		start := time.Now()
		id := tr.begin("setup", fmt.Sprintf("setup#%d", i), laneWorkload, 0)
		err := w.setup(tr)
		tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		m.setup = append(m.setup, time.Since(start).Seconds())
	}

	// A repetition starts while at least half a typical one still fits
	// in the time, so a grid that takes half the time runs twice. The
	// untraced pass rotates through the workload's inputs; the traced
	// pass alternates untraced and traced repetitions of the first input,
	// so its overhead compares like with like. Alloc per request divides
	// a repetition's allocation by the requests it completed.
	budget := time.Duration(o.seconds * float64(time.Second))
	minReps, inputs := 1, w.inputs()
	if o.trace {
		minReps, inputs = 2, 1
	}
	start := time.Now()
	var walls []float64
	for i := 0; i < minReps || time.Since(start)+time.Duration(median(walls)/2*float64(time.Second)) <= budget; i++ {
		var rtr *tracer
		if o.trace && i%2 == 1 {
			rtr = tr
		}
		done := len(m.latencies)
		wall, alloc := w.rep(rtr, fmt.Sprintf("%s#%d", o.workload, i), i%inputs)
		walls = append(walls, wall.Seconds())
		if rtr != nil {
			m.tracedWall = append(m.tracedWall, wall.Seconds())
			continue
		}
		m.wall = append(m.wall, wall.Seconds())
		if n := len(m.latencies) - done; n > 0 {
			m.alloc = append(m.alloc, float64(alloc)/float64(n)/1e6)
		}
	}

	rep := &report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host:    hostInfo(),
		Metrics: map[string]metric{}, Samples: map[string][]float64{},
		Digests: m.digests,
	}
	if o.trace {
		rep.set("tracing_overhead_pct", 100*(median(m.tracedWall)/median(m.wall)-1), m.tracedWall)
		rep.set("terp.run_self_ms", median(m.runSelf), m.runSelf)
		rep.set("runner.cell_ms", median(m.cell), m.cell)
		rep.Counts = m.counts
		if err := runLayers(layerEnv{seed: o.seed, sz: o.sizes, grid: w.grid(), m: m, tr: tr}, rep); err != nil {
			m.op("layer drivers", err)
		}
	} else {
		var busy float64
		for _, s := range m.wall {
			busy += s
		}
		rep.set("setup_s", median(m.setup), m.setup)
		rep.set("requests_per_s", float64(len(m.latencies))/busy, m.wall)
		rep.set("latency_p50_ms", stats.Percentile(m.latencies, 50), m.latencies)
		rep.set("latency_p90_ms", stats.Percentile(m.latencies, 90), m.latencies)
		rep.set("alloc_mb", median(m.alloc), m.alloc)
	}
	rep.Attempted, rep.Failed, rep.Problems = m.attempted, m.failed, m.problems
	rep.Correct = m.failed == 0 && m.attempted > 0
	return rep, tr, nil
}

// set records a metric, its unit from the metric tables, and the raw
// samples it was computed from.
func (r *report) set(name string, v float64, samples []float64) {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			r.Samples[name] = samples
			return
		}
	}
	panic("terpperf: metric " + name + " is in neither metric table")
}

// print writes every metric by name with its unit and sample count, any
// failures, and last the one-line JSON summary.
func (r *report) print(stdout, stderr io.Writer) error {
	for _, p := range r.Problems {
		fmt.Fprintln(stderr, "terpperf: FAIL", p)
	}
	fmt.Fprintf(stdout, "terpperf %s seed=%d seconds=%g trace=%v go=%s gomaxprocs=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Host.Go, r.Host.GOMAXPROCS)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := r.Metrics[d.name]; ok {
				fmt.Fprintf(stdout, "  %-34s %14.6g %-3s n=%d\n", d.name, v.Value, v.Unit, len(r.Samples[d.name]))
			}
		}
	}
	for _, h := range r.digestHashes() {
		d := r.Digests[h]
		fmt.Fprintf(stdout, "  digest %s %s  (%s)\n", h, d.SHA256, d.Spec)
	}
	summary, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(summary))
	return err
}

// digestHashes returns the spec hashes of the run's digests, sorted.
func (r *report) digestHashes() []string {
	hashes := make([]string, 0, len(r.Digests))
	for h := range r.Digests {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	return hashes
}

// host is the provenance of a run's numbers.
type host struct {
	Go         string   `json:"go"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	CPU        string   `json:"cpu"`
	Caches     []string `json:"caches"`
	Revision   string   `json:"revision"`
	Modified   bool     `json:"modified"`
}

func hostInfo() host {
	h := host{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPU: "unknown", Revision: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	for _, c := range hostCaches() {
		h.Caches = append(h.Caches, fmt.Sprintf("L%s %s %s", c.level, c.kind, c.size))
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

type hostCache struct{ level, kind, size string }

// hostCaches reads cpu0's cache levels from sysfs (none off Linux).
func hostCaches() []hostCache {
	var out []hostCache
	for i := 0; ; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		read := func(f string) string {
			b, _ := os.ReadFile(dir + f)
			return strings.TrimSpace(string(b))
		}
		c := hostCache{read("level"), read("type"), read("size")}
		if c.level == "" {
			return out
		}
		out = append(out, c)
	}
}

// checkGolden compares the run's digests with the golden file. A spec
// the file knows must match it; at seed 1 every spec must be known.
func checkGolden(path string, r *report) error {
	golden, err := readGolden(path)
	if err != nil {
		return err
	}
	for _, h := range r.digestHashes() {
		d := r.Digests[h]
		want, ok := golden[h]
		switch {
		case ok && want != d.SHA256:
			r.fail(fmt.Sprintf("golden: %s digest %s, want %s", d.Spec, d.SHA256, want))
		case !ok && r.Seed == 1:
			r.fail(fmt.Sprintf("golden: %s has no golden digest in %s (rerun with --update)", d.Spec, path))
		}
	}
	return nil
}

func (r *report) fail(problem string) {
	r.Attempted++
	r.Failed++
	r.Correct = false
	r.Problems = append(r.Problems, problem)
}

func readGolden(path string) (map[string]string, error) {
	golden := map[string]string{}
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return golden, nil
	}
	if err == nil {
		err = json.Unmarshal(b, &golden)
	}
	if err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	return golden, nil
}

// updateGolden merges the run's digests into the golden file.
func updateGolden(path string, digests map[string]digestEntry) error {
	golden, err := readGolden(path)
	if err != nil {
		return err
	}
	for h, d := range digests {
		golden[h] = d.SHA256
	}
	return writeJSONFile(path, golden)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeTrace(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
