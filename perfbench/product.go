package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"b3"
)

// procSample is the process-wide resource counters at one instant.
type procSample struct {
	cpu        time.Duration // user + system CPU (getrusage)
	allocBytes uint64        // /gc/heap/allocs:bytes
	gcCPU      float64       // /cpu/classes/gc/total:cpu-seconds
	totalCPU   float64       // /cpu/classes/total:cpu-seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(runtimeSamples)
	return procSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: runtimeSamples[0].Value.Uint64(),
		gcCPU:      runtimeSamples[1].Value.Float64(),
		totalCPU:   runtimeSamples[2].Value.Float64(),
	}
}

// peakRSSMiB returns the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kib / 1024
				}
			}
		}
	}
	// No procfs: getrusage reports the same peak in KiB on Linux.
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// productRep is one untraced RunCampaignMatrix call.
type productRep struct {
	totals []rowTotals
	wall   time.Duration
	before procSample
	after  procSample
}

// runProduct runs one residue class through the public facade.
func runProduct(s spec, class, workers int, st *setup) (*productRep, error) {
	c, err := s.campaign(class, workers, st.corpusDir)
	if err != nil {
		return nil, err
	}
	rep := &productRep{before: sampleProc()}
	start := time.Now()
	m, err := b3.RunCampaignMatrix(c, st.fss)
	rep.wall = time.Since(start)
	rep.after = sampleProc()
	if err != nil {
		return nil, err
	}
	for _, row := range m.PerFS {
		rep.totals = append(rep.totals, totalsOf(row))
	}
	return rep, nil
}

// endToEnd derives the per-rep end-to-end figures (setup_s and
// peak_rss_mib are per run, not per rep).
func (r *productRep) endToEnd() map[string]float64 {
	tested, _, states := sumTotals(r.totals)
	wall := r.wall.Seconds()
	return map[string]float64{
		"workloads_per_s":       float64(tested) / wall,
		"states_per_s":          float64(states) / wall,
		"cpu_ms_per_workload":   float64(r.after.cpu-r.before.cpu) / float64(time.Millisecond) / float64(tested),
		"alloc_bytes_per_state": float64(r.after.allocBytes-r.before.allocBytes) / float64(states),
	}
}

// gcShare is the share of the rep's CPU time the garbage collector used.
func (r *productRep) gcShare() float64 {
	total := r.after.totalCPU - r.before.totalCPU
	if total <= 0 {
		return 0
	}
	return (r.after.gcCPU - r.before.gcCPU) / total
}
