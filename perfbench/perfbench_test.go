package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"tripwire"
)

// scaleDown shrinks a workload recipe to a few hundred sites and
// SmallConfig's organic site populations, keeping the rest of the recipe
// (storage mix, breach counts, checkpoint and spill settings) so the smoke
// runs exercise the same mechanisms.
func scaleDown(cfg tripwire.Config) tripwire.Config {
	const sites = 600
	cfg.Web.NumSites = sites
	for i := range cfg.Batches {
		cfg.Batches[i].ToRank = min(cfg.Batches[i].ToRank, sites)
	}
	cfg.NumUnused = 500
	small := tripwire.SmallConfig()
	cfg.OrganicUsersMin, cfg.OrganicUsersMax = small.OrganicUsersMin, small.OrganicUsersMax
	return cfg
}

func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			r, err := runStudy(w, scaleDown(w.config()), instanceSeed, dir, "", false)
			if err != nil {
				t.Fatal(err)
			}
			if r.GateErr != "" {
				t.Fatalf("correctness gate: %s", r.GateErr)
			}
			if r.StudyS <= 0 || r.CPUS <= 0 || r.PeakRSSMB <= 0 || r.LiveHeapMB <= 0 {
				t.Errorf("non-positive end-to-end metric: %+v", r)
			}
			if got := r.DiskMB > 0; got != w.durable {
				t.Errorf("disk_mb = %v, durable = %v", r.DiskMB, w.durable)
			}
		})
	}
}

func TestWrongRecordedDigestFailsRun(t *testing.T) {
	w, err := lookupWorkload("crawl")
	if err != nil {
		t.Fatal(err)
	}
	r, err := runStudy(w, scaleDown(w.config()), instanceSeed, t.TempDir(), strings.Repeat("0", 64), false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.GateErr, "digest") {
		t.Fatalf("gate error = %q, want a digest mismatch", r.GateErr)
	}
}

// TestTracedStudyAttribution profiles a real study: every per-layer metric
// the study process owns is reported, and the per-layer self CPU sums to
// the profile total.
func TestTracedStudyAttribution(t *testing.T) {
	w, err := lookupWorkload("stuffing")
	if err != nil {
		t.Fatal(err)
	}
	r, err := runStudy(w, scaleDown(w.config()), instanceSeed, t.TempDir(), "", true)
	if err != nil {
		t.Fatal(err)
	}
	if r.GateErr != "" {
		t.Fatalf("correctness gate: %s", r.GateErr)
	}
	for _, d := range perLayer {
		if d.name == "trace.overhead_pct" || d.name == "fail_ratio" {
			continue // set by the driver process
		}
		if _, ok := r.Layers[d.name]; !ok {
			t.Errorf("traced study did not report %s", d.name)
		}
	}
	var self float64
	for _, l := range layers {
		self += r.Layers[l+".cpu_s"]
	}
	if total := r.Layers["profile.cpu_s"]; total <= 0 || math.Abs(self-total) > 1e-9*total {
		t.Errorf("self CPU sums to %v s, profile total %v s", self, total)
	}
	if got := r.Layers["profile.attributed_pct"]; math.Abs(got-100) > 1e-9 {
		t.Errorf("profile.attributed_pct = %v, want 100", got)
	}
	if r.Layers["snapshot.checkpoints"] == 0 || r.Layers["simclock.events"] == 0 {
		t.Errorf("durable traced study recorded no checkpoints or timeline events")
	}
}

func TestAttributeInnermostRepoFrame(t *testing.T) {
	const crack = "tripwire/internal/attacker.(*Cracker).Crack"
	p := &cpuProfile{samples: []cpuSample{
		{ns: 10, stack: []string{"crypto/sha256.block", "tripwire/internal/webgen.EncodePassword", crack + ".func1"}},
		{ns: 20, stack: []string{"runtime.mallocgc", crack + ".func1"}},
		{ns: 40, stack: []string{"runtime.gcBgMarkWorker"}},
		{ns: 80, stack: []string{"tripwire/internal/sweep.Run"}},
		{ns: 160, stack: []string{"strings.(*Builder).WriteString", "tripwire.(*Study).Summary", "main.runStudy"}},
		{ns: 320, stack: []string{"tripwire/internal/evbus.(*Hub[go.shape.struct { tripwire/internal/sim.Kind int }]).Append"}},
	}}
	a := attribute(p)
	want := map[string]int64{"webgen": 10, "attacker": 20, "runtime": 40, "other": 80, "tripwire": 160, "evbus": 320}
	var sum int64
	for layer, ns := range a.selfNs {
		sum += ns
		if ns != want[layer] {
			t.Errorf("self[%s] = %d, want %d", layer, ns, want[layer])
		}
	}
	if sum != a.totalNs || a.totalNs != 630 {
		t.Errorf("self CPU sums to %d, total %d, want 630", sum, a.totalNs)
	}
	if a.cumNs["attacker.crack_cpu_s"] != 30 || a.cumNs["webgen.hash_cpu_s"] != 10 {
		t.Errorf("cumulative = %v, want crack 30 and hash 10", a.cumNs)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// benchmark reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
