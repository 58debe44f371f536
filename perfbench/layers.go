package main

import (
	"fmt"
	"io"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a campaign user sees, measured with tracing off.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"workloads_per_s", "1/s"},
	{"states_per_s", "1/s"},
	{"cpu_ms_per_workload", "ms"},
	{"alloc_bytes_per_state", "bytes"},
	{"peak_rss_mib", "MiB"},
}

// perLayerMetrics come from the traced run. Each is the median over the
// run's traced campaigns, except the *_range counts (max - min over them)
// and the profile latency figures (pooled over every profiled workload).
// A *_s time is wall time (self time where the layer has child spans); a
// *_cpu_s time is the same span's thread CPU self time.
var perLayerMetrics = []metricDef{
	{"ace.generate_s", "s"},
	{"ace.generate_cpu_s", "s"},
	{"ace.generated", "count"},
	{"ace.tested_share", "ratio"},
	{"campaign.enqueue_wait_s", "s"},
	{"campaign.worker_idle_s", "s"},
	{"campaign.workload_s", "s"},
	{"campaign.states_checked", "count"},
	{"campaign.states_checked_range", "count"},
	{"profile.s", "s"},
	{"profile.mkfs_s", "s"},
	{"profile.mount_s", "s"},
	{"profile.execute_s", "s"},
	{"profile.cpu_s", "s"},
	{"profile.p50_ms", "ms"},
	{"profile.tail_ms", "ms"},
	{"profile.tail_pct", "%"},
	{"profile.samples", "count"},
	{"profile.dirty_kib", "KiB"},
	{"construct.s", "s"},
	{"construct.replayed_writes", "count"},
	{"construct.writes_per_state", "writes/state"},
	{"reorder.s", "s"},
	{"reorder.cpu_s", "s"},
	{"reorder.states", "count"},
	{"reorder.class_skipped", "count"},
	{"reorder.commute_skipped", "count"},
	{"reorder.recoveries", "count"},
	{"fault.s", "s"},
	{"fault.cpu_s", "s"},
	{"fault.states", "count"},
	{"fault.class_skipped", "count"},
	{"fault.recoveries", "count"},
	{"fault.broken", "count"},
	{"recover.mounts", "count"},
	{"recover.mount_s", "s"},
	{"recover.mount_cpu_s", "s"},
	{"recover.fsck_calls", "count"},
	{"recover.fsck_s", "s"},
	{"check.s", "s"},
	{"check.cpu_s", "s"},
	{"check.runs", "count"},
	{"check.blocks_read", "count"},
	{"cache.class_hits", "count"},
	{"cache.disk_hits", "count"},
	{"cache.tree_hits", "count"},
	{"cache.misses", "count"},
	{"cache.misses_range", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.distinct_states", "count"},
	{"cache.evictions", "count"},
	{"kv.profile_s", "s"},
	{"kv.judge_s", "s"},
	{"kv.legal", "count"},
	{"kv.violations", "count"},
	{"corpus.append_s", "s"},
	{"corpus.checkpoint_s", "s"},
	{"corpus.records", "count"},
	{"corpus.bytes", "bytes"},
	{"report.s", "s"},
	{"report.groups", "count"},
	{"report.workloads_to_last_group", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"trace.spans", "count"},
}

// layerMetrics derives one traced campaign's per-layer figures. The run
// level adds the pooled profile latencies, the ranges, gc_cpu_share and
// the tracing overhead.
func layerMetrics(tr *tracedRun, kv bool) map[string]float64 {
	lt := sumLayers(tr.recs)
	self := func(l layer) float64 { return float64(lt.self[l]) / 1e9 }
	total := func(l layer) float64 { return float64(lt.total[l]) / 1e9 }
	cpu := func(l layer) float64 { return float64(lt.selfCPU[l]) / 1e9 }

	var a rowAcc
	var generated, toLast, groups, spans int64
	var hits, misses, class, disk, tree, distinct, evicted, blocks int64
	for i, r := range tr.rows {
		a.merge(&tr.accs[i])
		generated += r.generated
		groups += int64(len(tr.groups[i]))
		toLast += workloadsToLastGroup(tr.groups[i], tr.accs[i].testedSeqs)
		cs := r.cache.Stats()
		class += cs.ClassHits
		disk += cs.DiskHits
		tree += cs.TreeHits
		misses += cs.Misses
		distinct += cs.DiskStates
		evicted += cs.Evictions()
		blocks += r.meter.BlocksRead.Load()
	}
	hits = class + disk + tree
	for _, r := range tr.recs {
		spans += int64(len(r.spans))
	}
	var fStates, fClassSkip, fChecked, fBroken int64
	for k := range a.fStates {
		fStates += a.fStates[k]
		fClassSkip += a.fClassSkip[k]
		fChecked += a.fChecked[k]
		fBroken += a.fBroken[k]
	}
	states := a.states + a.rStates + fStates
	m := map[string]float64{
		"ace.generate_s":                 self(lGenerate),
		"ace.generate_cpu_s":             cpu(lGenerate),
		"profile.cpu_s":                  cpu(lProfile) + cpu(lProfileMkfs) + cpu(lProfileMount),
		"reorder.cpu_s":                  cpu(lReorder),
		"fault.cpu_s":                    cpu(lFault),
		"recover.mount_cpu_s":            cpu(lRecoverMount),
		"check.cpu_s":                    cpu(lCheck),
		"ace.generated":                  float64(generated),
		"ace.tested_share":               ratio(a.tested, generated),
		"campaign.enqueue_wait_s":        total(lEnqueue),
		"campaign.worker_idle_s":         total(lIdle),
		"campaign.workload_s":            self(lWorkload),
		"campaign.states_checked":        float64(a.checked),
		"profile.s":                      total(lProfile),
		"profile.mkfs_s":                 total(lProfileMkfs),
		"profile.mount_s":                total(lProfileMount),
		"profile.execute_s":              self(lProfile),
		"profile.dirty_kib":              ratio(a.dirty, a.dirtyN) / 1024,
		"construct.s":                    total(lConstruct),
		"construct.replayed_writes":      float64(a.replayed),
		"construct.writes_per_state":     ratio(a.replayed, states),
		"reorder.s":                      self(lReorder),
		"reorder.states":                 float64(a.rStates),
		"reorder.class_skipped":          float64(a.rClassSkip),
		"reorder.commute_skipped":        float64(a.rCommuteSkip),
		"reorder.recoveries":             float64(a.rChecked),
		"fault.s":                        self(lFault),
		"fault.states":                   float64(fStates),
		"fault.class_skipped":            float64(fClassSkip),
		"fault.recoveries":               float64(fChecked),
		"fault.broken":                   float64(fBroken),
		"recover.mounts":                 float64(lt.count[lRecoverMount]),
		"recover.mount_s":                total(lRecoverMount),
		"recover.fsck_calls":             float64(lt.count[lRecoverFsck]),
		"recover.fsck_s":                 total(lRecoverFsck),
		"check.s":                        self(lCheck),
		"check.runs":                     float64(a.checked),
		"check.blocks_read":              float64(blocks),
		"cache.class_hits":               float64(class),
		"cache.disk_hits":                float64(disk),
		"cache.tree_hits":                float64(tree),
		"cache.misses":                   float64(misses),
		"cache.hit_ratio":                ratio(hits, hits+misses),
		"cache.distinct_states":          float64(distinct),
		"cache.evictions":                float64(evicted),
		"kv.legal":                       float64(a.kv.Legal),
		"kv.violations":                  float64(a.kv.Violations()),
		"corpus.append_s":                total(lAppend),
		"corpus.checkpoint_s":            total(lCheckpoint),
		"corpus.records":                 float64(lt.count[lAppend]),
		"corpus.bytes":                   float64(tr.corpusB),
		"report.s":                       total(lReport),
		"report.groups":                  float64(groups),
		"report.workloads_to_last_group": float64(toLast),
		"trace.spans":                    float64(spans),
	}
	m["kv.profile_s"], m["kv.judge_s"] = 0, 0
	if kv {
		m["kv.profile_s"], m["kv.judge_s"] = total(lProfile), self(lCheck)
	}
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerShares is one traced campaign's self time per layer, wall and CPU,
// each as a share of its busy total (every layer but the two waits).
type layerShares struct {
	wall, cpu         [numLayers]float64
	wallBusy, cpuBusy float64 // seconds
}

func sharesOf(tr *tracedRun) layerShares {
	lt := sumLayers(tr.recs)
	var ls layerShares
	for l := layer(0); l < numLayers; l++ {
		if !l.waiting() {
			ls.wallBusy += float64(lt.self[l])
			ls.cpuBusy += float64(lt.selfCPU[l])
		}
	}
	for l := layer(0); l < numLayers; l++ {
		ls.wall[l] = float64(lt.self[l]) / ls.wallBusy
		ls.cpu[l] = float64(lt.selfCPU[l]) / ls.cpuBusy
	}
	ls.wallBusy /= 1e9
	ls.cpuBusy /= 1e9
	return ls
}

// writeLayerTable renders the layer-share table: per workload, each
// layer's wall and CPU self time as a share of the busy total.
func writeLayerTable(w io.Writer, names []string, shares []layerShares) {
	head := make([]string, len(names))
	for i, n := range names {
		head[i] = n + " wall | " + n + " cpu"
	}
	fmt.Fprintf(w, "| layer (self time) | %s |\n", strings.Join(head, " | "))
	fmt.Fprintf(w, "|---|%s\n", strings.Repeat("---:|", 2*len(names)))
	row := func(label string, cell func(ls layerShares) (string, string)) {
		cells := make([]string, len(names))
		for i := range names {
			a, b := cell(shares[i])
			cells[i] = a + " | " + b
		}
		fmt.Fprintf(w, "| %s | %s |\n", label, strings.Join(cells, " | "))
	}
	for l := layer(0); l < numLayers; l++ {
		label := l.String()
		if l.waiting() {
			label += " (wait, not in total)"
		}
		row(label, func(ls layerShares) (string, string) {
			return fmt.Sprintf("%.1f%%", 100*ls.wall[l]), fmt.Sprintf("%.1f%%", 100*ls.cpu[l])
		})
	}
	row("busy total", func(ls layerShares) (string, string) {
		return fmt.Sprintf("%.2f s", ls.wallBusy), fmt.Sprintf("%.2f s", ls.cpuBusy)
	})
}
