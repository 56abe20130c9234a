package attack

import (
	"math/rand"

	"repro/internal/obs"
	"repro/internal/paging"
	"repro/internal/params"
)

// ProbeModel is the analytic attack model behind Table V: an attacker
// holding an arbitrary-read/write primitive probes for the base address
// of a randomized PMO. Each probe takes AttackMicros; the PMO moves (or
// disappears) at the end of every exposure window, so the attacker gets
// EW/attack probes against EntropyBits of placement entropy per window.
// Under TERP the attacker's own thread additionally needs thread
// permission, which it only holds for AccessFraction of the window.
type ProbeModel struct {
	// PMOBytes is the PMO size (1 GB in the paper).
	PMOBytes uint64
	// EWMicros is the exposure window in microseconds.
	EWMicros float64
	// AttackMicros is the duration of one probe (x in Table V).
	AttackMicros float64
	// AccessFraction is the fraction of the window during which the
	// attacking thread holds access (1.0 for MERR; the measured thread
	// exposure rate under TERP).
	AccessFraction float64
}

// EntropyBits returns the placement entropy for the PMO: the number of
// distinct attachAlign-aligned positions a PMO of this size can occupy in
// the 47-bit user space (2^18 for 1 GB, as Table V assumes).
func (m ProbeModel) EntropyBits() int {
	// 47-bit space, 1 GB alignment slots, half usable after masking the
	// PMO's own footprint: 2^(47-30) / ceil(size/1GB).
	slots := uint64(1) << 17
	per := (m.PMOBytes + (1 << 30) - 1) >> 30
	if per == 0 {
		per = 1
	}
	slots /= per
	bits := 0
	for s := slots; s > 1; s >>= 1 {
		bits++
	}
	return bits + 1 // table uses 18-bit entropy for 1 GB
}

// SuccessPercent returns the probability (in percent) that the attacker
// finds the PMO base within one exposure window — the Table V entries.
func (m ProbeModel) SuccessPercent() float64 {
	if m.AttackMicros <= 0 {
		return 0
	}
	probes := m.EWMicros / m.AttackMicros * m.AccessFraction
	positions := float64(uint64(1) << m.EntropyBits())
	p := probes / positions
	if p > 1 {
		p = 1
	}
	return p * 100
}

// TableVRow computes the MERR and TERP success percentages for one attack
// time, using the paper's parameters (1 GB PMO, 40 us EW) and the
// measured TERP thread-access fraction.
func TableVRow(attackMicros, terpAccessFraction float64) (merrPct, terpPct float64) {
	merr := ProbeModel{PMOBytes: 1 << 30, EWMicros: 40, AttackMicros: attackMicros, AccessFraction: 1}
	terp := merr
	terp.AccessFraction = terpAccessFraction
	return merr.SuccessPercent(), terp.SuccessPercent()
}

// MonteCarloProbe validates the analytic model empirically against the
// real randomized address space: for each trial a PMO is attached at a
// randomized base and the attacker issues `probes` guesses at 1
// GB-aligned user addresses; the trial succeeds if any guess hits the
// mapping. It returns the measured success fraction.
func MonteCarloProbe(trials int, probes int, seed int64) (float64, error) {
	return MonteCarloProbeObs(trials, probes, seed, nil)
}

// MonteCarloProbeObs is MonteCarloProbe with observability. Each trial is
// modeled as one exposure window of the paper's default EW length on the
// recorder's hardware track ("expo/ew" async span, arg = trial), the
// attacker's guesses inside it as "attack/probe" instants on thread 0
// (arg = probe ordinal), and a success as an "attack/probe-hit" instant
// at the same timestamp — so the report layer can correlate probe hits
// with exposure windows straight from the event stream, without
// re-running the scan. A nil recorder records nothing.
func MonteCarloProbeObs(trials int, probes int, seed int64, rec *obs.Recorder) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	hits := 0
	window := params.Micros(params.DefaultEWMicros)
	probeStep := params.Micros(1) // state-of-the-art probe rate: 1 us each
	hw := rec.Track(obs.HWThread)
	att := rec.Track(0)
	for t := 0; t < trials; t++ {
		start := uint64(t) * window
		hw.AsyncBegin(start, obs.CatExpo, "ew", int64(t))
		as := paging.NewAddressSpace(rand.New(rand.NewSource(rng.Int63())))
		m, err := as.Attach(1, 1<<30, nil, 0, paging.ReadWrite)
		if err != nil {
			return 0, err
		}
		for p := 0; p < probes; p++ {
			at := start + uint64(p)*probeStep
			if at >= start+window {
				at = start + window - 1 // clamp: probes stay inside the window
			}
			att.Instant(at, obs.CatAttack, "probe", int64(p))
			guess := (rng.Uint64() % (1 << 17)) << 30
			if guess == m.Base {
				att.Instant(at, obs.CatAttack, "probe-hit", int64(p))
				hits++
				break
			}
		}
		hw.AsyncEnd(start+window, obs.CatExpo, "ew", int64(t))
	}
	return float64(hits) / float64(trials), nil
}

// AttackTimes returns the attack durations evaluated in Table V.
func AttackTimes() []float64 { return []float64{1.0, 0.1} }

// DefaultTERPAccessFraction is the thread exposure rate the paper's
// Table V analysis uses (3.4%, the measured WHISPER TER).
const DefaultTERPAccessFraction = 0.034
