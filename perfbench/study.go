package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"tripwire"
)

// studyResult is what one study process reports to the driver process, as
// one JSON line on stdout.
type studyResult struct {
	// NewDoneNs is the wall clock, in Unix nanoseconds, when New returned
	// with no error; the driver subtracts the time it started the process.
	NewDoneNs  int64   `json:"new_done_ns"`
	StudyS     float64 `json:"study_s"`
	CPUS       float64 `json:"cpu_s"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	LiveHeapMB float64 `json:"live_heap_mb"`
	DiskMB     float64 `json:"disk_mb"`
	Digest     string  `json:"digest"`
	// GateErr is set when the study erred or failed the correctness gate.
	GateErr string `json:"gate_err,omitempty"`
	// Layers holds the per-layer metrics of a traced study.
	Layers map[string]float64 `json:"layers,omitempty"`
}

const mb = 1 << 20

// setupOnly builds the study and returns when New does: the set-up a user
// pays before any work starts, package init included.
func setupOnly(w workload, seed int64, stateDir string) (studyResult, error) {
	s := tripwire.New(w.options(w.config(), seed, stateDir)...)
	done := time.Now().UnixNano()
	if err := s.Err(); err != nil {
		return studyResult{}, err
	}
	return studyResult{NewDoneNs: done}, nil
}

// runStudy runs one complete study of cfg: New, RunContext, Summary. The
// timed span runs from New returning to Summary returning. want is the
// recorded summary digest, or empty when none is recorded. A traced study
// also takes a CPU profile, attaches a metrics registry, reads
// runtime/metrics and lists the state directory, to fill Layers.
func runStudy(w workload, cfg tripwire.Config, seed int64, stateDir, want string, trace bool) (studyResult, error) {
	opts := w.options(cfg, seed, stateDir)
	var (
		reg     *tripwire.Metrics
		prof    bytes.Buffer
		rtStart []metrics.Sample
	)
	if trace {
		reg = tripwire.NewMetrics()
		opts = append(opts, tripwire.WithMetrics(reg))
		rtStart = readRuntime()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return studyResult{}, err
		}
	}

	newStart := time.Now()
	s := tripwire.New(opts...)
	newDone := time.Now()
	if err := s.Err(); err != nil {
		if trace {
			pprof.StopCPUProfile()
		}
		return studyResult{}, err
	}
	cpu0 := processCPU()
	runErr := s.RunContext(context.Background())
	runDone := time.Now()
	summary := s.Summary()
	summaryDone := time.Now()
	cpu1 := processCPU()
	if trace {
		pprof.StopCPUProfile()
	}

	r := studyResult{
		NewDoneNs: newDone.UnixNano(),
		StudyS:    summaryDone.Sub(newDone).Seconds(),
		CPUS:      (cpu1 - cpu0).Seconds(),
		Digest:    summaryDigest(summary),
	}
	gateErr := runErr
	if gateErr == nil {
		gateErr = gate(s, summary, want)
	}
	if gateErr != nil {
		r.GateErr = gateErr.Error()
	}
	disk, err := listState(stateDir)
	if err != nil {
		return studyResult{}, err
	}
	r.DiskMB = float64(disk.bytes) / mb

	if trace {
		p, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return studyResult{}, err
		}
		r.Layers = layerMetrics(s, reg, attribute(p), runtimeDelta(rtStart, readRuntime()), disk)
		r.Layers["tripwire.new_s"] = newDone.Sub(newStart).Seconds()
		r.Layers["tripwire.run_s"] = runDone.Sub(newDone).Seconds()
		r.Layers["report.summary_s"] = summaryDone.Sub(runDone).Seconds()
	}

	// The live heap is what a library caller keeps per study: collect, with
	// the study still reachable.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(s)
	r.LiveHeapMB = float64(ms.HeapAlloc) / mb
	r.PeakRSSMB = float64(peakRSSKiB()) / 1024
	return r, nil
}

// processCPU is the process's user plus system time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSKiB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSKiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss)
}

// stateListing summarises the checkpoint and spill directories.
type stateListing struct {
	bytes           int64
	checkpoints     int
	checkpointBytes int64
	spillSegments   int
}

func listState(dir string) (stateListing, error) {
	var l stateListing
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) && path == dir {
				return fs.SkipAll
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		l.bytes += info.Size()
		switch filepath.Base(filepath.Dir(path)) {
		case "checkpoints":
			if strings.HasSuffix(path, ".twsnap") {
				l.checkpoints++
				l.checkpointBytes += info.Size()
			}
		case "spill":
			l.spillSegments++
		}
		return nil
	})
	if err != nil {
		return l, fmt.Errorf("listing %s: %w", dir, err)
	}
	return l, nil
}
