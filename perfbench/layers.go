package main

import (
	"runtime/metrics"

	"tripwire"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"study_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced study's metrics, in report order.
// BENCHMARK.json lists the same names and units.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"profile.cpu_s", "s"},
		{"profile.attributed_pct", "%"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_s", "s"})
	}
	return append(defs, []metricDef{
		// Cumulative CPU under one function (see cumulativeRoots).
		{"attacker.crack_cpu_s", "s"},
		{"webgen.hash_cpu_s", "s"},
		{"crawler.register_cpu_s", "s"},
		{"attacker.stuff_cpu_s", "s"},
		{"emailprovider.login_cpu_s", "s"},
		{"emailprovider.dump_cpu_s", "s"},
		{"core.ingest_cpu_s", "s"},
		{"sim.checkpoint_cpu_s", "s"},
		// Counts and ratios from the study's own metrics registry.
		{"attacker.creds_cracked", "count"},
		{"attacker.stuff_attempts", "count"},
		{"attacker.stuff_success_ratio", "ratio"},
		{"crawler.attempts", "count"},
		{"crawler.page_loads", "count"},
		{"crawler.exposed_ratio", "ratio"},
		{"crawler.classify_hit_ratio", "ratio"},
		{"webgen.render_hit_ratio", "ratio"},
		{"webgen.sites_materialized", "count"},
		{"sim.wave_s", "s"},
		{"sim.waves", "count"},
		{"sim.worker_util_pct", "%"},
		{"simclock.events", "count"},
		{"simclock.epochs", "count"},
		{"simclock.epoch_width_mean", "events"},
		{"simclock.worker_util_pct", "%"},
		{"emailprovider.log_size", "count"},
		{"core.monitor_events", "count"},
		{"core.detections", "count"},
		{"core.detect_ratio", "ratio"},
		// Listing of the checkpoint and spill directories.
		{"emailprovider.spill_segments", "count"},
		{"snapshot.checkpoints", "count"},
		{"snapshot.mb_per_checkpoint", "MB"},
		{"disk_mb", "MB"},
		// runtime/metrics over the traced study.
		{"runtime.gc_cpu_s", "s"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.alloc_objects", "count"},
		{"runtime.gc_cycles", "count"},
		// Benchmark-side spans around the public API calls.
		{"tripwire.new_s", "s"},
		{"tripwire.run_s", "s"},
		{"report.summary_s", "s"},
		// Set by the driver process.
		{"trace.overhead_pct", "%"},
		{"fail_ratio", "ratio"},
	}...)
}()

// layerMetrics assembles a traced study's per-layer metrics, all but the
// spans and the driver-side ones.
func layerMetrics(s *tripwire.Study, reg *tripwire.Metrics, a attribution, rt runtimeStats, disk stateListing) map[string]float64 {
	m := map[string]float64{}
	m["profile.cpu_s"] = float64(a.totalNs) / 1e9
	var attributed int64
	for _, l := range layers {
		m[l+".cpu_s"] = float64(a.selfNs[l]) / 1e9
		attributed += a.selfNs[l]
	}
	m["profile.attributed_pct"] = 100 * ratio(float64(attributed), float64(a.totalNs))
	for key := range cumulativeRoots {
		m[key] = float64(a.cumNs[key]) / 1e9
	}

	snap := reg.Snapshot()
	c, g := snap.Counters, snap.Gauges
	m["attacker.creds_cracked"] = c["tripwire_attacker_creds_cracked_total"]
	m["attacker.stuff_attempts"] = c["tripwire_attacker_stuffing_attempts_total"]
	m["attacker.stuff_success_ratio"] = ratio(c["tripwire_attacker_stuffing_successes_total"], m["attacker.stuff_attempts"])
	m["crawler.attempts"] = c["tripwire_crawler_attempts_total"]
	m["crawler.page_loads"] = c["tripwire_crawler_page_loads_total"]
	m["crawler.exposed_ratio"] = ratio(c["tripwire_crawler_identities_exposed_total"], m["crawler.attempts"])
	hits := c["tripwire_crawler_classify_cache_hits_total"]
	m["crawler.classify_hit_ratio"] = ratio(hits, hits+c["tripwire_crawler_classify_cache_misses_total"])
	hits = c["tripwire_webgen_render_cache_hits_total"]
	m["webgen.render_hit_ratio"] = ratio(hits, hits+c["tripwire_webgen_render_cache_misses_total"])
	m["webgen.sites_materialized"] = g["tripwire_webgen_sites_materialized"]
	m["sim.wave_s"] = snap.Histograms["tripwire_sim_wave_duration_seconds"].Sum
	m["sim.waves"] = c["tripwire_sim_waves_total"]
	m["sim.worker_util_pct"] = g["tripwire_sim_worker_utilization_percent"]
	m["simclock.events"] = c["tripwire_timeline_events_total"]
	m["simclock.epochs"] = c["tripwire_timeline_epochs_total"]
	w := snap.Histograms["tripwire_timeline_epoch_width"]
	m["simclock.epoch_width_mean"] = ratio(w.Sum, float64(w.Count))
	m["simclock.worker_util_pct"] = g["tripwire_timeline_worker_utilization_percent"]
	m["emailprovider.log_size"] = g["tripwire_provider_login_log_size"]
	m["core.monitor_events"] = c["tripwire_monitor_events_total"]
	m["core.detections"] = c["tripwire_monitor_detections_total"]
	m["core.detect_ratio"] = ratio(float64(len(s.Detections())), float64(registeredBreaches(s)))

	m["emailprovider.spill_segments"] = float64(disk.spillSegments)
	m["snapshot.checkpoints"] = float64(disk.checkpoints)
	m["snapshot.mb_per_checkpoint"] = ratio(float64(disk.checkpointBytes)/mb, float64(disk.checkpoints))
	m["disk_mb"] = float64(disk.bytes) / mb

	m["runtime.gc_cpu_s"] = rt.gcCPUSeconds
	m["runtime.alloc_mb"] = rt.allocBytes / mb
	m["runtime.alloc_objects"] = rt.allocObjects
	m["runtime.gc_cycles"] = rt.gcCycles
	return m
}

// registeredBreaches counts breached sites where Tripwire holds a
// registration: the breaches a detection is possible for.
func registeredBreaches(s *tripwire.Study) int {
	p := s.Pilot()
	n := 0
	for domain := range p.Campaign.Breaches() {
		if len(p.Ledger.SiteRegistrations(domain)) > 0 {
			n++
		}
	}
	return n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtime/metrics read around a traced study.
var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

type runtimeStats struct {
	gcCPUSeconds, allocBytes, allocObjects, gcCycles float64
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func runtimeDelta(before, after []metrics.Sample) runtimeStats {
	d := make([]float64, len(after))
	for i := range after {
		d[i] = sampleValue(after[i]) - sampleValue(before[i])
	}
	return runtimeStats{gcCPUSeconds: d[0], allocBytes: d[1], allocObjects: d[2], gcCycles: d[3]}
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}
