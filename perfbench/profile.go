package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the attribution
// needs: each sample's stack as function names, innermost first, and its
// CPU nanoseconds.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	stack []string
	ns    int64
}

// parseCPUProfile decodes a gzipped profile.proto as runtime/pprof writes
// it. It reads only sample types, samples, locations (with inlined lines),
// functions and the string table.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs, values []uint64
	}
	var (
		sampleTypes [][2]int64 // (type, unit) string indexes
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id -> name string index
		strs        []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					t[num-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					return appendVarints(&s.values, wire, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	valueIdx := -1
	for i, t := range sampleTypes {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{ns: int64(s.values[valueIdx])}
		for _, loc := range s.locs {
			fns, ok := locFuncs[loc]
			if !ok {
				return nil, fmt.Errorf("profile: sample names unknown location %d", loc)
			}
			for _, fn := range fns {
				cs.stack = append(cs.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, cs)
	}
	return p, nil
}

// eachField walks the top-level fields of one protobuf message, passing
// varint values in v and length-delimited payloads in b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// cumulativeRoots names the functions whose cumulative CPU is reported as
// a per-layer metric of its own. A sample counts once under a key if any
// frame is one of its roots or a closure inside one: goroutines a root
// starts have only the closure on their stack, and the IMAP server side
// of a stuffing login runs on its own goroutine (bot.serve).
var cumulativeRoots = map[string][]string{
	"attacker.crack_cpu_s":   {"tripwire/internal/attacker.(*Cracker).Crack"},
	"webgen.hash_cpu_s":      {"tripwire/internal/webgen.EncodePassword"},
	"crawler.register_cpu_s": {"tripwire/internal/crawler.(*Crawler).RegisterWith"},
	"attacker.stuff_cpu_s": {
		"tripwire/internal/attacker.(*Stuffer).TryLogin",
		"tripwire/internal/attacker.(*Stuffer).TryLoginFrom",
		"tripwire/internal/attacker.(*Stuffer).loginPOP",
		"tripwire/internal/attacker.(*bot).serve",
	},
	"emailprovider.login_cpu_s": {"tripwire/internal/emailprovider.(*Provider).login"},
	"emailprovider.dump_cpu_s":  {"tripwire/internal/emailprovider.(*Provider).DumpSince"},
	"core.ingest_cpu_s":         {"tripwire/internal/core.(*Monitor).Ingest"},
	"sim.checkpoint_cpu_s":      {"tripwire/internal/sim.(*Pilot).WriteCheckpoint"},
}

// layers lists the repository modules a study runs, each reported as
// "<layer>.cpu_s". A sample charged to a repository module not listed
// here goes to "other"; a sample with no repository frame goes to
// "runtime".
var layers = []string{
	"attacker", "browser", "captcha", "core", "crawler", "disclosure",
	"dnssim", "emailprovider", "evbus", "geo", "htmldom", "identity",
	"imap", "mailserv", "memconn", "obs", "pop3", "report", "sim",
	"simclock", "snapshot", "stats", "tripwire", "webgen", "xrand",
	"other", "runtime",
}

// attribution is a CPU profile split by layer.
type attribution struct {
	totalNs int64
	selfNs  map[string]int64 // layer -> self CPU
	cumNs   map[string]int64 // cumulativeRoots key -> cumulative CPU
}

// attribute charges every sample to exactly one layer: the module of its
// innermost tripwire frame, so standard-library frames go to their
// repository caller, or runtime when no repository frame exists.
func attribute(p *cpuProfile) attribution {
	a := attribution{selfNs: map[string]int64{}, cumNs: map[string]int64{}}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, s := range p.samples {
		a.totalNs += s.ns
		layer := "runtime"
		for _, fn := range s.stack {
			if m, ok := moduleOf(fn); ok {
				layer = m
				if !known[layer] {
					layer = "other"
				}
				break
			}
		}
		a.selfNs[layer] += s.ns
		for key, roots := range cumulativeRoots {
			if underAny(s.stack, roots) {
				a.cumNs[key] += s.ns
			}
		}
	}
	return a
}

func underAny(stack, roots []string) bool {
	for _, fn := range stack {
		for _, root := range roots {
			if fn == root || strings.HasPrefix(fn, root+".") {
				return true
			}
		}
	}
	return false
}

// moduleOf returns the repository module of a profile function name:
// "tripwire/internal/webgen.EncodePassword" is webgen and
// "tripwire.(*Study).Summary" is tripwire.
func moduleOf(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, "tripwire/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i], true
		}
		return "", false
	}
	if strings.HasPrefix(fn, "tripwire.") {
		return "tripwire", true
	}
	if strings.HasPrefix(fn, "tripwire/") {
		return "other", true
	}
	return "", false
}
