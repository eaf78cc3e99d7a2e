// Command perfbench is the repository's whole-study benchmark. Each
// workload runs complete Tripwire studies through the root package's
// public API in a closed loop: one study per fresh process, the next
// starting only when the last has finished. Run it from the repository
// root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper --seed 42 --seconds 20 --trace 0
//
// Timed studies run at seed 42, the ROADMAP headline; after them, one
// study runs at --seed. With --trace 0 the last stdout line is a JSON
// object carrying the end-to-end metrics (medians over the timed
// studies); with --trace 1 the run adds one traced study outside the timed
// set and reports per-layer metrics instead. Every study passes a
// correctness gate (see gate.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	workloadName := flag.String("workload", "paper", "workload: paper, crawl or stuffing")
	seed := flag.Int64("seed", 42, "Config.Seed of the run's seeded study; timed studies run at seed 42")
	seconds := flag.Int("seconds", 20, "measure for this long: studies start until it has passed")
	trace := flag.Int("trace", 0, "1 adds a traced study and reports per-layer metrics instead of end-to-end ones")
	child := flag.String("child", "", "internal: run one study process (setup or study) and print its result")
	traced := flag.Bool("traced", false, "internal: with -child study, trace the study")
	flag.Parse()

	w, err := lookupWorkload(*workloadName)
	if err != nil {
		fail(err)
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, not %d", *trace))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("--seconds must be at least 1, not %d", *seconds))
	}
	stateDir := filepath.Join(".bench_build", "state", w.name)

	if *child != "" {
		var r studyResult
		switch *child {
		case "setup":
			r, err = setupOnly(w, *seed, stateDir)
		case "study":
			r, err = runStudy(w, w.config(), *seed, stateDir, recordedDigests[w.name][*seed], *traced)
		default:
			err = fmt.Errorf("unknown -child %q", *child)
		}
		if err != nil {
			fail(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fail(err)
		}
		return
	}

	res, err := drive(w, *seed, *seconds, *trace == 1, stateDir)
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
