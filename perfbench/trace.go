package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"b3/internal/blockdev"
	"b3/internal/filesys"
)

// layer names one span kind: a call the traced mirror makes into a layer
// of the program, or a wait between layers.
type layer uint8

const (
	lGenerate     layer = iota // ace/kvace GenerateSeq; self time excludes the enqueue sends
	lEnqueue                   // generator blocked handing a workload to the pool
	lIdle                      // worker blocked waiting for a workload
	lWorkload                  // one job: the mirror of runWorkload/runKVWorkload
	lProfile                   // ProfileWorkload / ProfileKV
	lProfileMkfs               // FileSystem.Mkfs under a profile span
	lProfileMount              // FileSystem.Mount under a profile span
	lCheck                     // TestCheckpoint / TestKVCheckpoint
	lConstruct                 // crash-state construction inside a checkpoint test (product-measured ReplayDur)
	lReorder                   // ExploreReorder / ExploreKVReorder
	lFault                     // ExploreFaults / ExploreKVFaults
	lRecoverMount              // FileSystem.Mount of a crash state (or its write-check fork)
	lRecoverFsck               // FileSystem.Fsck of a crash state
	lAppend                    // corpus.Shard.Append
	lCheckpoint                // corpus.Shard.Checkpoint (and the final Close)
	lReport                    // report.FromResult / GroupReports / KnownDB.Split
	numLayers
)

var layerNames = [numLayers]string{
	"ace.generate", "campaign.enqueue", "campaign.worker_idle", "campaign.workload",
	"profile", "profile.mkfs", "profile.mount", "check", "construct", "reorder",
	"fault", "recover.mount", "recover.fsck", "corpus.append", "corpus.checkpoint",
	"report",
}

func (l layer) String() string { return layerNames[l] }

// waiting reports whether a layer is time spent blocked rather than working.
func (l layer) waiting() bool { return l == lEnqueue || l == lIdle }

// span is one timed call. Spans of one workload share a trace id: the
// matrix row (backend) and the workload's sequence number.
type span struct {
	layer      layer
	row        uint8
	parent     int32 // index into the recorder's spans; -1 at the root
	seq        int64
	start, end int64 // nanoseconds since the tracer epoch
	cpu        int64 // thread CPU nanoseconds spent inside the span
}

// recorder holds the spans of one goroutine, so recording takes no lock.
// Spans stay in memory until the run ends.
//
// Wall time alone cannot say which layer did the work: seven goroutines
// share two processors, and a goroutine that is runnable but waiting for
// one (behind the garbage collector, say) still accrues wall self time.
// So the goroutine that owns a recorder is locked to its OS thread, and
// each span also records the thread's CPU time.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int32 // stack of open span indices
	cpu0  []int64 // thread CPU time when each open span began
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span as a child of the innermost open span.
func (r *recorder) begin(l layer, row int, seq int64) int32 {
	return r.push(span{layer: l, row: uint8(row), seq: seq, parent: r.top()})
}

// child opens a span that inherits the trace id of the innermost open span.
func (r *recorder) child(l layer) int32 {
	s := span{layer: l, parent: r.top()}
	if s.parent >= 0 {
		s.row, s.seq = r.spans[s.parent].row, r.spans[s.parent].seq
	}
	return r.push(s)
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int32) {
	s := &r.spans[id]
	s.end = r.now()
	n := len(r.open) - 1
	s.cpu = threadCPU() - r.cpu0[n]
	r.open, r.cpu0 = r.open[:n], r.cpu0[:n]
}

// add records an already finished child of the innermost open span from
// bounds the program measured itself; its CPU time is taken to be its
// wall time.
func (r *recorder) add(l layer, start, end int64) {
	p := r.top()
	s := span{layer: l, parent: p, start: start, end: end, cpu: end - start}
	if p >= 0 {
		s.row, s.seq = r.spans[p].row, r.spans[p].seq
	}
	r.spans = append(r.spans, s)
}

func (r *recorder) top() int32 {
	if len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

func (r *recorder) push(s span) int32 {
	s.start = r.now()
	r.spans = append(r.spans, s)
	id := int32(len(r.spans) - 1)
	r.open = append(r.open, id)
	r.cpu0 = append(r.cpu0, threadCPU())
	return id
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children, and its CPU time minus its children's. Children
// may overlap each other or stick out of the parent; each covered
// nanosecond inside the parent counts once.
func selfTimes(spans []span) (wall, cpu []int64) {
	kids := make([][][2]int64, len(spans))
	cpu = make([]int64, len(spans))
	for i, s := range spans {
		cpu[i] += s.cpu
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
			cpu[s.parent] -= s.cpu
		}
	}
	wall = make([]int64, len(spans))
	for i, s := range spans {
		wall[i] = s.end - s.start - covered(s.start, s.end, kids[i])
		cpu[i] = max(cpu[i], 0) // a synthetic child's estimate can exceed what it replaced
	}
	return wall, cpu
}

// covered returns how much of [start, end) the union of ivs covers.
func covered(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := start // everything before cur is already counted
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// layerTimes sums self time (wall and CPU), total time and span counts per
// layer over every recorder.
type layerTimes struct {
	self, selfCPU, total, count [numLayers]int64
}

func sumLayers(recs []*recorder) layerTimes {
	var lt layerTimes
	for _, r := range recs {
		self, cpu := selfTimes(r.spans)
		for i, s := range r.spans {
			lt.self[s.layer] += self[i]
			lt.selfCPU[s.layer] += cpu[i]
			lt.total[s.layer] += s.end - s.start
			lt.count[s.layer]++
		}
	}
	return lt
}

// tracedFS times Mkfs, Mount and Fsck under whichever span its worker has
// open. Each worker's Monkey owns one, so the recorder is never shared.
type tracedFS struct {
	filesys.FileSystem
	rec *recorder
}

func (f *tracedFS) underProfile() bool {
	p := f.rec.top()
	return p >= 0 && f.rec.spans[p].layer == lProfile
}

// Mkfs runs only while profiling a workload.
func (f *tracedFS) Mkfs(dev blockdev.Device) error {
	id := f.rec.child(lProfileMkfs)
	defer f.rec.end(id)
	return f.FileSystem.Mkfs(dev)
}

func (f *tracedFS) Mount(dev blockdev.Device) (filesys.MountedFS, error) {
	l := lRecoverMount
	if f.underProfile() {
		l = lProfileMount
	}
	id := f.rec.child(l)
	defer f.rec.end(id)
	return f.FileSystem.Mount(dev)
}

func (f *tracedFS) Fsck(dev blockdev.Device) (bool, error) {
	id := f.rec.child(lRecoverFsck)
	defer f.rec.end(id)
	return f.FileSystem.Fsck(dev)
}

// writeSpans writes every span as one gzipped JSON line: id, parent,
// layer, trace id (backend/seq), start and end in nanoseconds since the
// run's epoch, and thread CPU nanoseconds.
func writeSpans(path string, recs []*recorder, rows []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	type line struct {
		ID      string `json:"id"`
		Parent  string `json:"parent,omitempty"`
		Name    string `json:"name"`
		Trace   string `json:"trace"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		CPUNS   int64  `json:"cpu_ns"`
	}
	for g, r := range recs {
		for i, s := range r.spans {
			l := line{
				ID:      fmt.Sprintf("%d.%d", g, i),
				Name:    s.layer.String(),
				Trace:   fmt.Sprintf("%s/%d", rows[s.row], s.seq),
				StartNS: s.start,
				EndNS:   s.end,
				CPUNS:   s.cpu,
			}
			if s.parent >= 0 {
				l.Parent = fmt.Sprintf("%d.%d", g, s.parent)
			}
			if err := enc.Encode(&l); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
