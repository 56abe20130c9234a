package crash

import (
	"reflect"
	"testing"
)

func TestFencePolicyTxnPairsAllPointsRecover(t *testing.T) {
	rep, err := Run(Spec{Workload: "txnpairs", Ops: 40, Seed: 1, Policy: FencePolicy})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates == 0 || len(rep.Points) != rep.Candidates {
		t.Fatalf("candidates=%d points=%d", rep.Candidates, len(rep.Points))
	}
	if rep.Failures != 0 {
		for _, p := range rep.Points {
			if p.Err != "" {
				t.Errorf("event %d (%s): %s", p.Event, p.Kind, p.Err)
			}
		}
		t.Fatalf("%d of %d points failed verification", rep.Failures, len(rep.Points))
	}
	if rep.Undone == 0 {
		t.Fatal("no crash point ever rolled back a record — injection hit nothing mid-transaction")
	}
	if rep.Events == 0 || rep.Fences == 0 {
		t.Fatalf("stats: events=%d fences=%d", rep.Events, rep.Fences)
	}
}

func TestAdversarialRandomTxnPairsRecovers(t *testing.T) {
	rep, err := Run(Spec{Workload: "txnpairs", Ops: 60, Seed: 7, Policy: RandomPolicy, Points: 12, Adversarial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 12 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	if rep.Failures != 0 {
		for _, p := range rep.Points {
			if p.Err != "" {
				t.Errorf("event %d: %s", p.Event, p.Err)
			}
		}
		t.Fatal("adversarial images failed verification")
	}
	dropped := 0
	for _, p := range rep.Points {
		dropped += p.Dropped
	}
	if dropped == 0 {
		t.Fatal("adversary never dropped a line — the relaxed-ordering path is untested")
	}
}

// TestCrossCheckSampledImagesAreEnumerable is the property tying the
// sampling injector to the exhaustive enumerator: whatever policy picks
// the crash point and whatever subset the adversary drops, the
// materialized image must be one the litmus engine's ForEachCrashImage
// walk produces at the same instant. Both go through the same
// CrashImage path, so a divergence would mean the two materializations
// have drifted apart.
func TestCrossCheckSampledImagesAreEnumerable(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"fence", Spec{Workload: "txnpairs", Ops: 40, Seed: 1, Policy: FencePolicy, CrossCheck: true}},
		{"fence/adv", Spec{Workload: "txnpairs", Ops: 40, Seed: 3, Policy: FencePolicy, Adversarial: true, CrossCheck: true}},
		{"nth", Spec{Workload: "txnpairs", Ops: 40, Seed: 5, Policy: NthPolicy, Every: 7, CrossCheck: true}},
		{"nth/adv", Spec{Workload: "txnpairs", Ops: 40, Seed: 5, Policy: NthPolicy, Every: 7, Adversarial: true, CrossCheck: true}},
		{"random", Spec{Workload: "txnpairs", Ops: 40, Seed: 9, Policy: RandomPolicy, Points: 10, CrossCheck: true}},
		{"random/adv", Spec{Workload: "txnpairs", Ops: 40, Seed: 9, Policy: RandomPolicy, Points: 10, Adversarial: true, CrossCheck: true}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failures != 0 {
				for _, p := range rep.Points {
					if p.Err != "" {
						t.Errorf("event %d (%s): %s", p.Event, p.Kind, p.Err)
					}
				}
				t.Fatalf("%d of %d points failed", rep.Failures, len(rep.Points))
			}
			if rep.CrossChecked == 0 {
				t.Fatalf("no point was cross-checked (%d skipped at the cap)", rep.CrossSkipped)
			}
			if rep.CrossChecked+rep.CrossSkipped != len(rep.Points) {
				t.Fatalf("checked %d + skipped %d != points %d",
					rep.CrossChecked, rep.CrossSkipped, len(rep.Points))
			}
		})
	}
}

func TestNthPolicyCountsEvents(t *testing.T) {
	rep, err := Run(Spec{Workload: "txnpairs", Ops: 10, Seed: 3, Policy: NthPolicy, Every: 25})
	if err != nil {
		t.Fatal(err)
	}
	want := int((rep.Events + 24) / 25)
	if rep.Candidates != want {
		t.Fatalf("candidates = %d, want every 25th of %d events = %d", rep.Candidates, rep.Events, want)
	}
	if rep.Failures != 0 {
		t.Fatalf("%d failures", rep.Failures)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	spec := Spec{Workload: "txnpairs", Ops: 30, Seed: 11, Policy: RandomPolicy, Points: 6, Adversarial: true}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reports differ:\n%+v\n%+v", a, b)
	}
}

func TestUnknownWorkloadAndBadSpec(t *testing.T) {
	if _, err := Run(Spec{Workload: "nope", Ops: 5, Policy: FencePolicy}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Run(Spec{Workload: "txnpairs", Policy: FencePolicy}); err == nil {
		t.Fatal("zero ops accepted")
	}
	if _, err := Run(Spec{Workload: "txnpairs", Ops: 5, Policy: Policy("bogus")}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestWhisperWorkloadsUnderInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("whisper setups are heavy; covered by the full run")
	}
	for _, tc := range []struct {
		workload string
		spec     Spec
	}{
		{"hashmap", Spec{Workload: "hashmap", Ops: 60, Seed: 2, Policy: FencePolicy, Every: 40, Points: 3, Adversarial: true}},
		{"ctree", Spec{Workload: "ctree", Ops: 60, Seed: 2, Policy: RandomPolicy, Points: 3, Adversarial: true}},
		{"tpcc", Spec{Workload: "tpcc", Ops: 40, Seed: 2, Policy: FencePolicy, Every: 60, Points: 3, Adversarial: true}},
		{"echo", Spec{Workload: "echo", Ops: 40, Seed: 2, Policy: RandomPolicy, Points: 3, Adversarial: true}},
	} {
		tc := tc
		t.Run(tc.workload, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range rep.Points {
				if p.Err != "" {
					t.Errorf("event %d (%s): %s", p.Event, p.Kind, p.Err)
				}
			}
		})
	}
}
