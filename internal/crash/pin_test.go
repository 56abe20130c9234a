package crash

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// pinSpecs is the spec matrix TestReportsPinned covers: every workload
// under fence and nth points (strict and adversarial, capped and not) and
// random samples (capped, and every event at a few ops), with the
// txnpairs cells cross-checked against the exhaustive enumeration.
func pinSpecs() map[string]Spec {
	specs := map[string]Spec{}
	for i, w := range []string{"txnpairs", "echo", "ycsb", "tpcc", "ctree", "hashmap", "redis"} {
		check := w == "txnpairs"
		seed := int64(i + 2)
		for label, s := range map[string]Spec{
			"fence/strict": {Ops: 150, Policy: FencePolicy, Every: 5, Points: 8},
			"fence/adv":    {Ops: 16, Policy: FencePolicy, Adversarial: true},
			"nth/adv":      {Ops: 100, Policy: NthPolicy, Every: 7, Points: 8, Adversarial: true},
			"random/adv":   {Ops: 150, Policy: RandomPolicy, Points: 8, Adversarial: true},
			"random/all":   {Ops: 8, Policy: RandomPolicy},
		} {
			s.Workload, s.Seed, s.CrossCheck = w, seed, check
			specs[w+"/"+label] = s
		}
	}
	return specs
}

// TestReportsPinned pins every per-point report of the matrix, not just
// the totals the crash grid keeps: the SHA-256 of each Report's JSON
// (events, kinds, drops, undone records, cross-checks and errors), and
// the error texts of an unknown policy and of a policy that matches no
// event.
func TestReportsPinned(t *testing.T) {
	want := map[string]string{
		"ctree/fence/adv":       "ad79b7ad9d003b90ef34bfc1cc74c9ceafdaee9630182ea57a8701478bf118a4",
		"ctree/fence/strict":    "4b200e1ecb9c065095e53daa714f9dad9f2162bc9862cd1b641456356710cd61",
		"ctree/nth/adv":         "b87a2ed4eeb7d1df445faf2cdfc471d617910c8ea3de9c42b370e8c6e151bb43",
		"ctree/random/adv":      "7b9164daccfc9ceac03842ac669c516c3b48d3de49d696f5fb7a783323c3f081",
		"ctree/random/all":      "de6f3d5d45374f025a312ed856b2aca85738db035fbea7e86a3f5eca3f1b401a",
		"echo/fence/adv":        "40d7b425ade68b03c1716095839c3bcea3f7814629ad9f682c4d61ba7b94d259",
		"echo/fence/strict":     "9440a1df735030e6f3f849724ac1c7ee09e9e46b1771eb608aa91efbe68bf6a2",
		"echo/nth/adv":          "3432328f09e5566b6bf7ff530a27214a29b45cb26464df93590f0ac8df709b29",
		"echo/random/adv":       "602e316042598c1cf30ad717c82d77a02db364aa0909e4775aabd45e309af096",
		"echo/random/all":       "5e16309c7997f9d0f72dea64c60cf21fbed20b9b43aafa5ea71704ef2553a829",
		"hashmap/fence/adv":     "6cc96b95e178bd198c579b363b5ec135971cc640068e2dbbab558913dbb79ff8",
		"hashmap/fence/strict":  "575ecd65f8efdce59a557186e7205a3d7b9c2abe7826122aaf6ac94adb53393d",
		"hashmap/nth/adv":       "968039a3a891501404fd1fd755c1a240e654db56c05c126a8de85a24bac7cbce",
		"hashmap/random/adv":    "49ae63f498fbefe7700e8333e994ab0411647f9b0be061019f7717e9e7bb10cd",
		"hashmap/random/all":    "7cd472b0b653c0cbe31cfcfb4d77aa5aa7a4b724167b29421275bac504ba292f",
		"redis/fence/adv":       "b63d13d67074469a2476a97ce06221bf662f99522b2e1245b76ef1c08e173718",
		"redis/fence/strict":    "eaaa14c1f479404cd88321a83c561f24736db905afe38d8b67680a6b45bd48bc",
		"redis/nth/adv":         "772e4f1923ec3d4e701babfc61734e917df18980b197831c916e1d212e65337c",
		"redis/random/adv":      "981da8ad51a4c85f23f6410ce99902a6a460640c4f4e94ae823633c0443c9c4f",
		"redis/random/all":      "dec49f9f7f795fdd34ba74bf1068cd7b5d3bea52816ca46fffb18beae9003f5d",
		"tpcc/fence/adv":        "52fdf4a3d1c57b644992e86f5ef615a97dc8d220dda38c9d15c807eaae566db0",
		"tpcc/fence/strict":     "04704a53337ed3a358f9454c7027090e02c7836b21935a7002012d840fa2622a",
		"tpcc/nth/adv":          "a9553529eeafa1befab2dcfbc70a7221be3debc5b91f2f56321bf9a5151f428a",
		"tpcc/random/adv":       "e3e614baed6d45a02e9c3df4dc1fadd6d84446e1ad0f162257823f6347408c50",
		"tpcc/random/all":       "dee154d0f04f5abf0766338bb31fd766d30fe3612c35f88f73dbd292facd6f6e",
		"txnpairs/fence/adv":    "8099ca647687a6e4f119ebe28b2bd458eddba387e483ea718560e764af58d512",
		"txnpairs/fence/strict": "b7373652cf313ea62c174c1f10fd562457895a62b3746e38f08732f209059ce9",
		"txnpairs/nth/adv":      "44d21aa51383d59395f83039c16d2e625750fea8c7fee75512ae5e35004353da",
		"txnpairs/random/adv":   "6081e27d92104b4b368825d15d590e10cd6f6fd4aac7656d78ebe6ef149da3be",
		"txnpairs/random/all":   "c9d3abe002ba5e2fa203aee5591e78520464093afb2e29bd5e942d3084ca090d",
		"ycsb/fence/adv":        "6b33c68865fc48d2059db7a99b208cc86f14477a561cf4ced1c292b70d4747e3",
		"ycsb/fence/strict":     "df1d5712db47d211557fbc2e62f2b260523ef45e20f892f83330cece07be3e7e",
		"ycsb/nth/adv":          "c3c7c7b64c3d37011a4eb7bf7e8ebab31c7d944cf101180014b89aa03cb53eb0",
		"ycsb/random/adv":       "5ac91d5b00e26d96a3e6db9c8d1a6fd385236aeeddfcfd97fd81e416452c9b92",
		"ycsb/random/all":       "b4e83a6f3f6d01d9bd9b4eedf1d0af589d28322d04a4ecaea22a8966913a2b40",
	}
	for name, s := range pinSpecs() {
		t.Run(name, func(t *testing.T) {
			rep, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(js)); got != want[name] {
				t.Errorf("report digest %s, want %s\n%s", got, want[name], js)
			}
		})
	}
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown policy", Spec{Workload: "txnpairs", Ops: 5, Seed: 1, Policy: Policy("bogus")}, `crash: policy "bogus" matched no events`},
		{"no events", Spec{Workload: "hashmap", Ops: 1, Seed: 2, Policy: RandomPolicy}, `crash: policy "random" matched no events`},
	} {
		_, err := Run(tc.spec)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
}
