package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cluster/apps"
	"repro/internal/comm/fault"
)

// FuzzValidateSpec feeds arbitrary bytes through the submit handler's
// decoding and validation. Nothing may panic; a spec that is accepted must,
// once the coordinator has assigned its checkpoint directory, be runnable
// (apps.Spec.Validate, which apps.Run panics on), carry a fault plan every
// worker's /start can parse, and validating it again must accept it
// unchanged.
func FuzzValidateSpec(f *testing.F) {
	dsmc := apps.Spec{App: "dsmc", Elems: 600, Steps: 8, CheckpointEvery: 2}
	for _, spec := range []JobSpec{
		{Spec: apps.Spec{App: "fig1", Elems: 500, Iters: 1500}},
		{Spec: apps.Spec{App: "fig1", Elems: 500, Iters: 1500}, MinWorkers: 2},
		{Spec: apps.Spec{App: "fig1", Elems: 600, Iters: 2000}, MinWorkers: 3},
		{Spec: dsmc, MinWorkers: 3, FaultPlan: "seed=7,kill=1@250"},
		{Spec: apps.Spec{App: "charmm", Elems: 450, Steps: 12, CheckpointEvery: 3, CrashStep: 4, CrashRank: 1}},
		{Spec: apps.Spec{App: "fig1", CheckpointEvery: 2}, RanksPerWorker: 65, MaxRestarts: -1},
	} {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{``, `{}`, `null`, `[]`, `{"app":"nope"}`, `{"crash_rank":-1}`, `{"elems":1e99}`, `{"app":"dsmc","ckpt_dir":"/elsewhere"}`, `{"app":"fig1","fault_plan":"seed=x"}`} {
		f.Add([]byte(s))
	}
	const ranksPerWorker, maxRestarts = 2, 3 // the coordinator's defaults
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if validateSpec(&spec, ranksPerWorker, maxRestarts) != nil {
			return
		}
		// What handleSubmit stores for an accepted spec.
		stored := spec
		if stored.CheckpointEvery > 0 {
			stored.CheckpointDir = "data/job-0001"
		}
		if err := stored.Spec.Validate(); err != nil {
			t.Fatalf("accepted spec %+v does not run: %v", stored, err)
		}
		if _, err := fault.Parse(stored.FaultPlan); err != nil {
			t.Fatalf("accepted spec %+v has a fault plan the workers refuse: %v", stored, err)
		}
		again := stored
		if err := validateSpec(&again, ranksPerWorker, maxRestarts); err != nil {
			t.Fatalf("accepted spec %+v refused on a second pass: %v", stored, err)
		}
		if again != spec {
			t.Fatalf("a second pass changed the spec: %+v, then %+v", spec, again)
		}
	})
}
