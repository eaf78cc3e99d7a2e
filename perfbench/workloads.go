package main

import (
	"fmt"
	"path/filepath"

	"tripwire"
)

// A workload is one complete study, built only through the root package's
// public API. Worker counts stay at their defaults (0 = GOMAXPROCS) and
// emulated latency stays zero: a figure taken under emulated latency
// measures overlap, not compute.
type workload struct {
	name string
	// config returns the study configuration before the seed is applied.
	config func() tripwire.Config
	// durable studies checkpoint after every wave and spill the login log
	// below stateDir; the others write nothing to disk.
	durable bool
}

// Durable-workload settings: a checkpoint after every wave is the cadence
// every tripwire-serve job uses, and a 1024-event resident budget makes the
// login log spill throughout the stuffing timeline.
const (
	checkpointEvery = 1
	spillBudget     = 1024
)

// Layer shares below are of the traced study's CPU profile at seed 42
// (2 cores, go1.24, Intel Xeon); "cumulative" counts everything under a
// function, "self" what a module runs itself.
var workloads = []workload{
	// paper is DefaultConfig unchanged, exactly `tripwire -scale paper`: the
	// ROADMAP headline. Of 33.5 CPU-s, the dictionary cracker takes 69%
	// (23.0 s cumulative under attacker.(*Cracker).Crack, nearly all of it
	// webgen.EncodePassword), crawl registration 11%, GC 13%; Summary takes
	// 0.7 s. A study is ~17 s wall.
	{name: "paper", config: tripwire.DefaultConfig},

	// crawl keeps the paper's 900 crawl waves (57.4k registration attempts)
	// and 50 breaches, but stores every password in plaintext or reversibly,
	// so no dump needs a dictionary sweep. Crawl waves take 85% of run wall
	// time (3.4 of 4.0 s); of 7.5 CPU-s, crawl registration takes 55%, GC
	// 20% and the cracker 0.01 s; Summary takes 0.6 s. A crawl optimisation
	// shows here; a cracker optimisation must show no change.
	{name: "crawl", config: func() tripwire.Config {
		cfg := tripwire.DefaultConfig()
		plaintextStorage(&cfg)
		return cfg
	}},

	// stuffing is the attacker-heavy serve job: 4,000 sites, every site
	// holding an account breached (360 breaches, 359 detections),
	// plaintext-equivalent storage so every honey credential is stuffed, a
	// checkpoint per wave and a spilling login log. It runs 51k timeline
	// events and 101k IMAP/POP3 logins and writes 174 MB in 146 files, with
	// cold DumpSince reads next to the writes. Of 5.5 CPU-s, checkpoint
	// writing takes 27%, stuffing logins 23% (client and server side), crawl
	// registration 10%, GC 25%. It is the only workload whose timeline,
	// protocol and checkpoint layers do real work.
	{name: "stuffing", durable: true, config: func() tripwire.Config {
		cfg := tripwire.SmallConfig()
		cfg.Web.NumSites = 4000
		for i := range cfg.Batches {
			if b := &cfg.Batches[i]; b.Name == "main" || b.Name == "refresh" {
				b.ToRank = 4000
			}
		}
		plaintextStorage(&cfg)
		cfg.BreachRegistered = 400
		cfg.BreachUnregistered = 0
		return cfg
	}},
}

// plaintextStorage stores 70% of sites' passwords in plaintext and 30%
// reversibly, so cracking any dump is a table lookup, not a sweep.
func plaintextStorage(cfg *tripwire.Config) {
	cfg.Web.PlaintextFrac = 0.7
	cfg.Web.ReversibleFrac = 0.3
	cfg.Web.WeakHashFrac = 0
	cfg.Web.StrongHashFrac = 0
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want paper, crawl or stuffing)", name)
}

// options builds the New options for one study of w. stateDir is a fixed
// path, emptied between studies: snapshots encode their directory, so a
// random temporary name would make the bytes written drift.
func (w workload) options(cfg tripwire.Config, seed int64, stateDir string) []tripwire.Option {
	opts := []tripwire.Option{tripwire.WithConfig(cfg), tripwire.WithSeed(seed)}
	if w.durable {
		opts = append(opts,
			tripwire.WithCheckpoint(filepath.Join(stateDir, "checkpoints"), checkpointEvery),
			tripwire.WithLogSpill(filepath.Join(stateDir, "spill"), spillBudget))
	}
	return opts
}
