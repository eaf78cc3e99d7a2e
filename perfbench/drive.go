package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// setupRuns is how many set-up-only processes a run starts; setup_s
	// is their median.
	setupRuns = 25
	// runBudget caps a whole run, traced study included, below the 180 s
	// a run may take.
	runBudget = 170 * time.Second
)

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// instanceSeed is the seed of every timed study: the ROADMAP headline is
// DefaultConfig at seed 42. A study's cost is a function of its seed (over
// seeds 1-5, paper took 9.1-28.3 s and stuffing ran 49k-128k logins), so
// timing a different seed on each run would measure the seed, not the code.
const instanceSeed = 42

// drive runs one benchmark run: setupRuns set-up processes, then timed
// studies at instanceSeed one at a time until seconds have passed, then
// one study at seed through the same correctness gate, then, when trace is
// set, one traced study. Each study gets a fresh process and an emptied
// stateDir. Lines starting with "#" are diagnostics.
func drive(w workload, seed int64, seconds int, trace bool, stateDir string) (result, error) {
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(runBudget))
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	env, err := json.Marshal(environment())
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# env %s\n", env)
	fmt.Printf("# workload %s seed %d seconds %d trace %t\n", w.name, seed, seconds, trace)

	var setups []float64
	for i := 0; i < setupRuns; i++ {
		began := time.Now()
		r, err := spawn(ctx, exe, w, instanceSeed, "setup", false)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, float64(r.NewDoneNs-began.UnixNano())/1e9)
	}

	var (
		studies   []studyResult
		attempted int
		failed    int
		digests   = map[int64]string{} // first digest seen per seed
		longest   time.Duration
	)
	runOne := func(seed int64, traced bool) (studyResult, bool, error) {
		if err := os.RemoveAll(stateDir); err != nil {
			return studyResult{}, false, err
		}
		began := time.Now()
		r, err := spawn(ctx, exe, w, seed, "study", traced)
		if d := time.Since(began); d > longest {
			longest = d
		}
		attempted++
		if err == nil && r.GateErr == "" {
			if first, ok := digests[seed]; !ok {
				digests[seed] = r.Digest
			} else if r.Digest != first {
				r.GateErr = fmt.Sprintf("summary digest %s differs from the run's first at seed %d, %s", r.Digest, seed, first)
			}
		}
		switch {
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			return r, false, fmt.Errorf("run exceeded its %v budget", runBudget)
		case err != nil:
			failed++
			fmt.Printf("# study %d seed %d FAILED: %v\n", attempted, seed, err)
			return r, false, nil
		case r.GateErr != "":
			failed++
			fmt.Printf("# study %d seed %d FAILED the correctness gate: %s\n", attempted, seed, r.GateErr)
			return r, false, nil
		}
		fmt.Printf("# study %d seed %d traced=%t study_s=%.4f cpu_s=%.4f peak_rss_mb=%.2f live_heap_mb=%.3f disk_mb=%.3f digest=%s\n",
			attempted, seed, traced, r.StudyS, r.CPUS, r.PeakRSSMB, r.LiveHeapMB, r.DiskMB, r.Digest)
		return r, true, nil
	}

	measureSeconds := time.Duration(seconds) * time.Second
	timed := time.Now()
	for attempted == 0 || time.Since(timed) < measureSeconds {
		// Leave room for this study, the seeded one and the traced one.
		if attempted > 0 && time.Since(start)+4*longest > runBudget {
			break
		}
		r, ok, err := runOne(instanceSeed, false)
		if err != nil {
			return result{}, err
		}
		if ok {
			studies = append(studies, r)
		}
	}
	if len(studies) == 0 {
		return result{}, fmt.Errorf("all %d timed studies failed", attempted)
	}
	if _, _, err := runOne(seed, false); err != nil {
		return result{}, err
	}
	pick := func(f func(studyResult) float64) []float64 {
		v := make([]float64, len(studies))
		for i, s := range studies {
			v[i] = f(s)
		}
		return v
	}
	samples := map[string][]float64{
		"setup_s":      setups,
		"study_s":      pick(func(s studyResult) float64 { return s.StudyS }),
		"cpu_s":        pick(func(s studyResult) float64 { return s.CPUS }),
		"peak_rss_mb":  pick(func(s studyResult) float64 { return s.PeakRSSMB }),
		"live_heap_mb": pick(func(s studyResult) float64 { return s.LiveHeapMB }),
	}
	for _, d := range endToEnd {
		v := samples[d.name]
		q1, med, q3 := quartiles(v)
		fmt.Printf("# %-13s n=%-3d median=%.4f q1=%.4f q3=%.4f %s\n", d.name, len(v), med, q1, q3, d.unit)
	}

	res := result{Metrics: map[string]metricValue{}}
	if !trace {
		for _, d := range endToEnd {
			_, med, _ := quartiles(samples[d.name])
			res.Metrics[d.name] = metricValue{med, d.unit}
		}
	} else {
		r, ok, err := runOne(instanceSeed, true)
		if err != nil {
			return result{}, err
		}
		if !ok {
			return result{}, errors.New("the traced study failed")
		}
		_, untraced, _ := quartiles(samples["study_s"])
		r.Layers["trace.overhead_pct"] = 100 * (r.StudyS/untraced - 1)
		r.Layers["fail_ratio"] = float64(failed) / float64(attempted)
		for _, d := range perLayer {
			v, ok := r.Layers[d.name]
			if !ok {
				return result{}, fmt.Errorf("traced study did not report %s", d.name)
			}
			res.Metrics[d.name] = metricValue{v, d.unit}
			fmt.Printf("# %-30s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	if err := os.RemoveAll(stateDir); err != nil {
		return result{}, err
	}
	res.Attempted, res.Failed, res.Correct = attempted, failed, failed == 0
	return res, nil
}

// spawn runs one study process and decodes its result line.
func spawn(ctx context.Context, exe string, w workload, seed int64, child string, traced bool) (studyResult, error) {
	cmd := exec.CommandContext(ctx, exe, "-child", child, "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-traced="+strconv.FormatBool(traced))
	// A study process must not outlive the driver process.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return studyResult{}, fmt.Errorf("%s process: %w", child, err)
	}
	var r studyResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return studyResult{}, fmt.Errorf("%s process result: %w", child, err)
	}
	return r, nil
}

// quartiles returns the first quartile, median and third quartile of v,
// interpolated as Python's statistics.quantiles(v, n=4) does.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	// Exclusive method: the quantile at fraction p sits at position
	// p*(n+1), 1-based, clamped to the data.
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), med, at(0.75)
}

// envInfo is printed with every result so figures carry their provenance.
type envInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func environment() envInfo {
	e := envInfo{
		Commit:     "unknown (not built in a git checkout)",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			e.Commit = rev
			if modified == "true" {
				e.Commit += "+modified"
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}
