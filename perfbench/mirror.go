package main

// The traced mirror copies campaign.RunMatrix, runWorkload and
// runKVWorkload call for call, timing each call into a layer from outside
// the program. It exists only until the program records these spans
// itself; the parity gate (its verdict totals must equal the untraced
// product run's) keeps the mirror from drifting until then.

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/corpus"
	"b3/internal/crashmonkey"
	"b3/internal/filesys"
	"b3/internal/kvace"
	"b3/internal/kvoracle"
	"b3/internal/report"
	"b3/internal/workload"
)

// tracedRow is one matrix row: a backend with its own prune cache, block
// meter and corpus shard, shared by every worker.
type tracedRow struct {
	idx       int
	name      string
	fs        filesys.FileSystem
	db        *report.KnownDB
	cache     *crashmonkey.PruneCache
	meter     blockdev.BlockMeter
	shard     *corpus.Shard
	appends   atomic.Int64
	generated int64
}

// rowAcc is what one worker gathered for one row. Workers never share one,
// so it needs no lock; the accumulators are merged once the pool drains.
type rowAcc struct {
	tested, failed, errs       int64
	states, checked, pruned    int64
	rStates, rChecked, rBroken int64
	rClassSkip, rCommuteSkip   int64
	fStates, fChecked, fBroken [blockdev.NumFaultKinds]int64
	fClassSkip                 [blockdev.NumFaultKinds]int64
	kv                         kvoracle.Counts
	replayed, dirty, dirtyN    int64
	profileNS, testedSeqs      []int64
	reports                    []*report.Report
}

func (a *rowAcc) merge(b *rowAcc) {
	a.tested += b.tested
	a.failed += b.failed
	a.errs += b.errs
	a.states += b.states
	a.checked += b.checked
	a.pruned += b.pruned
	a.rStates += b.rStates
	a.rChecked += b.rChecked
	a.rBroken += b.rBroken
	a.rClassSkip += b.rClassSkip
	a.rCommuteSkip += b.rCommuteSkip
	for k := range a.fStates {
		a.fStates[k] += b.fStates[k]
		a.fChecked[k] += b.fChecked[k]
		a.fBroken[k] += b.fBroken[k]
		a.fClassSkip[k] += b.fClassSkip[k]
	}
	a.kv.Merge(b.kv)
	a.replayed += b.replayed
	a.dirty += b.dirty
	a.dirtyN += b.dirtyN
	a.profileNS = append(a.profileNS, b.profileNS...)
	a.testedSeqs = append(a.testedSeqs, b.testedSeqs...)
	a.reports = append(a.reports, b.reports...)
}

// job is one workload bound for one row; exactly one of w and kw is set.
type job struct {
	row int
	w   *workload.Workload
	kw  *kvace.Workload
	seq int64
}

// tracedRun is the outcome of one traced campaign.
type tracedRun struct {
	wall    time.Duration
	rows    []*tracedRow
	accs    []rowAcc // merged, one per row
	totals  []rowTotals
	groups  [][]*report.Group
	recs    []*recorder
	corpusB int64 // bytes written to corpus shards
}

// mirror holds one traced campaign's configuration.
type mirror struct {
	s      spec
	class  int
	ace    *ace.Bounds
	kv     *kvace.Bounds
	faults blockdev.FaultModel
}

// runTraced runs one residue class through the layer entry points with
// spans on, mirroring campaign.RunMatrix.
func runTraced(s spec, class, workers int, st *setup) (*tracedRun, error) {
	m := &mirror{s: s, class: class}
	var err error
	if m.ace, m.kv, err = s.space(); err != nil {
		return nil, err
	}
	if m.faults, err = s.faultModel(); err != nil {
		return nil, err
	}
	epoch := time.Now()
	out := &tracedRun{}
	// Shard.Close is idempotent: this releases every shard on the error
	// paths; finish closes them first and checks the error.
	defer func() {
		for _, r := range out.rows {
			if r.shard != nil {
				r.shard.Close()
			}
		}
	}()
	for i, fs := range st.fss {
		r := &tracedRow{idx: i, name: st.names[i], fs: fs, db: st.dbs[i],
			cache: crashmonkey.NewPruneCacheCap(crashmonkey.DefaultPruneCap)}
		if st.corpusDir != "" {
			if r.shard, err = m.openShard(st.corpusDir, r.name); err != nil {
				return nil, err
			}
		}
		out.rows = append(out.rows, r)
	}

	jobs := make(chan job, 4*workers) // the product's queue depth
	accs := make([][]rowAcc, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		rec := newRecorder(epoch)
		out.recs = append(out.recs, rec)
		accs[w] = make([]rowAcc, len(out.rows))
		monkeys := make([]*crashmonkey.Monkey, len(out.rows))
		for i, r := range out.rows {
			monkeys[i] = &crashmonkey.Monkey{FS: &tracedFS{FileSystem: r.fs, rec: rec}, Prune: r.cache, Meter: &r.meter}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runtime.LockOSThread() // the recorder reads thread CPU time
			defer runtime.UnlockOSThread()
			for {
				idle := rec.begin(lIdle, 0, 0)
				j, ok := <-jobs
				rec.end(idle)
				if !ok {
					return
				}
				r := out.rows[j.row]
				var err error
				if j.kw != nil {
					err = m.runKV(rec, monkeys[j.row], r, &accs[w][j.row], j.kw, j.seq)
				} else {
					err = m.runFS(rec, monkeys[j.row], r, &accs[w][j.row], j.w, j.seq)
				}
				if err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}

	genErrs := make([]error, len(out.rows))
	var genWG sync.WaitGroup
	for i, r := range out.rows {
		rec := newRecorder(epoch)
		out.recs = append(out.recs, rec)
		genWG.Add(1)
		go func(i int, r *tracedRow) {
			defer genWG.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			r.generated, genErrs[i] = m.generate(rec, r, jobs)
		}(i, r)
	}
	genWG.Wait()
	close(jobs)
	wg.Wait()
	if err := errors.Join(append(genErrs, errs...)...); err != nil {
		return nil, err
	}

	// finish: merge, close corpus shards, group and split reports.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rec := newRecorder(epoch)
	out.recs = append(out.recs, rec)
	for i, r := range out.rows {
		var acc rowAcc
		for w := range accs {
			acc.merge(&accs[w][i])
		}
		if r.shard != nil {
			if err := m.closeShard(rec, r); err != nil {
				return nil, err
			}
		}
		id := rec.begin(lReport, i, 0)
		groups := report.GroupReports(acc.reports)
		fresh, _ := r.db.Split(groups)
		rec.end(id)
		out.accs = append(out.accs, acc)
		out.groups = append(out.groups, groups)
		out.totals = append(out.totals, m.totals(r, &acc, len(groups), len(fresh)))
	}
	out.wall = time.Since(epoch)
	for _, r := range out.rows {
		if r.shard != nil {
			fi, err := os.Stat(r.shard.Path())
			if err != nil {
				return nil, err
			}
			out.corpusB += fi.Size()
		}
	}
	return out, nil
}

func (m *mirror) totals(r *tracedRow, a *rowAcc, groups, fresh int) rowTotals {
	return rowTotals{
		FS: r.name, Generated: r.generated, Tested: a.tested, Failed: a.failed,
		Errors: a.errs, Groups: groups, FreshGroups: fresh, States: a.states,
		ReorderStates: a.rStates, ReorderBroken: a.rBroken,
		FaultStates: a.fStates, FaultBroken: a.fBroken,
		KVLegal: a.kv.Legal, KVLostAck: a.kv.LostAck,
		KVResurrected: a.kv.Resurrected, KVUnreplay: a.kv.Unreplayable,
	}
}

// openShard creates the row's corpus shard. The product fsyncs every
// corpus.DefaultFlushEvery records inside Append; the mirror turns that off
// and calls Checkpoint at the same interval, so the fsync is its own span.
func (m *mirror) openShard(dir, fsName string) (*corpus.Shard, error) {
	space := ""
	if m.kv != nil {
		space = m.kv.Fingerprint()
	} else {
		space = m.ace.Fingerprint()
	}
	meta := corpus.Meta{FS: fsName, Profile: string(m.s.profile), Bounds: space, Sample: m.s.sample}
	if m.s.shards > 1 {
		meta.Shard, meta.NumShards = m.class, m.s.shards
	}
	sh, err := corpus.Create(dir, fmt.Sprintf("%s__%s__traced__s%d", fsName, m.s.profile, m.class), meta)
	if err != nil {
		return nil, err
	}
	sh.FlushEvery = 0
	return sh, nil
}

func (m *mirror) record(rec *recorder, r *tracedRow, wr *corpus.WorkloadRecord) error {
	if r.shard == nil {
		return nil
	}
	id := rec.child(lAppend)
	err := r.shard.Append(wr)
	rec.end(id)
	if err != nil {
		return err
	}
	if r.appends.Add(1)%corpus.DefaultFlushEvery == 0 {
		id := rec.child(lCheckpoint)
		err = r.shard.Checkpoint()
		rec.end(id)
	}
	return err
}

func (m *mirror) closeShard(rec *recorder, r *tracedRow) error {
	id := rec.begin(lCheckpoint, r.idx, 0)
	defer rec.end(id)
	if err := r.shard.AppendDone(corpus.DoneRecord{Generated: r.generated}); err != nil {
		return err
	}
	return r.shard.Close()
}

// decide mirrors the per-sequence filter of fsRun.generate: test=false
// skips the workload (sampled out or in another residue class), stop=true
// ends enumeration at the workload cap. Unsampled campaigns partition in
// the generator instead (see generate).
func (m *mirror) decide(seq int64) (test, stop bool) {
	if m.s.max > 0 && seq > m.s.max {
		return false, true
	}
	sample := max(m.s.sample, 1)
	if seq%sample != 0 {
		return false, false
	}
	if sample > 1 && m.s.shards > 1 && (seq/sample)%int64(m.s.shards) != int64(m.class) {
		return false, false
	}
	return true, false
}

// generate mirrors fsRun.generate, with the generator-level residue-class
// partition when the campaign is unsampled.
func (m *mirror) generate(rec *recorder, r *tracedRow, jobs chan<- job) (int64, error) {
	shard, n := 0, 0
	if m.s.sample <= 1 && m.s.shards > 1 {
		shard, n = m.class, m.s.shards
	}
	send := func(j job) {
		id := rec.begin(lEnqueue, r.idx, j.seq)
		jobs <- j
		rec.end(id)
	}
	id := rec.begin(lGenerate, r.idx, 0)
	defer rec.end(id)
	if m.kv != nil {
		gen := kvace.New(*m.kv)
		gen.Shard, gen.NumShards = shard, n
		return gen.GenerateSeq(func(seq int64, w *kvace.Workload) bool {
			test, stop := m.decide(seq)
			if test {
				send(job{row: r.idx, kw: w, seq: seq})
			}
			return !stop
		})
	}
	gen := ace.New(*m.ace)
	gen.Shard, gen.NumShards = shard, n
	return gen.GenerateSeq(func(seq int64, w *workload.Workload) bool {
		test, stop := m.decide(seq)
		if test {
			send(job{row: r.idx, w: w, seq: seq})
		}
		return !stop
	})
}

// reportRecord renders one buggy checkpoint for the corpus.
func reportRecord(cp int, primary crashmonkey.Finding, skeleton string, findings []crashmonkey.Finding) corpus.ReportRecord {
	cr := corpus.ReportRecord{Checkpoint: cp, Primary: uint8(primary.Consequence), Skeleton: skeleton}
	for _, f := range findings {
		cr.Findings = append(cr.Findings, corpus.Finding{
			Consequence: uint8(f.Consequence), Path: f.Path, Detail: f.Detail,
		})
	}
	return cr
}

// finishRecord mirrors the verdict bookkeeping at the end of runWorkload.
func (m *mirror) finishRecord(rec *recorder, r *tracedRow, a *rowAcc, wr *corpus.WorkloadRecord,
	seq int64, skeleton, text func() string) error {
	if wr.Verdict == corpus.VerdictBuggy {
		a.failed++
		wr.Skeleton = skeleton()
		wr.Workload = text()
	} else if wr.Errored {
		wr.Verdict = corpus.VerdictError
	}
	if !wr.Errored {
		a.tested++
		a.testedSeqs = append(a.testedSeqs, seq)
	}
	return m.record(rec, r, wr)
}

// runFS mirrors campaign's runWorkload.
func (m *mirror) runFS(rec *recorder, mk *crashmonkey.Monkey, r *tracedRow, a *rowAcc,
	w *workload.Workload, seq int64) error {
	top := rec.begin(lWorkload, r.idx, seq)
	defer rec.end(top)

	wr := &corpus.WorkloadRecord{Seq: seq, ID: w.ID, Verdict: corpus.VerdictClean}
	id := rec.child(lProfile)
	p, err := mk.ProfileWorkload(w)
	rec.end(id)
	if err != nil {
		a.errs++
		wr.Verdict = corpus.VerdictError
		wr.Errored = true
		return m.record(rec, r, wr)
	}
	defer p.Release()
	last := p.Checkpoints()
	if last == 0 {
		return m.record(rec, r, wr)
	}
	a.profileNS = append(a.profileNS, rec.spans[id].end-rec.spans[id].start)
	a.dirty += p.DirtyBytes
	a.dirtyN++

	for cp := 1; cp <= last; cp++ {
		id := rec.child(lCheck)
		start := rec.now()
		res, err := mk.TestCheckpoint(p, cp)
		if err == nil {
			rec.add(lConstruct, start, start+int64(res.ReplayDur))
		}
		rec.end(id)
		if err != nil {
			a.errs++
			wr.Errored = true
			break
		}
		wr.States++
		a.states++
		if res.Pruned {
			wr.Pruned++
			a.pruned++
		} else {
			wr.Checked++
			a.checked++
		}
		wr.Replayed += res.ReplayedWrites
		a.replayed += res.ReplayedWrites
		if res.Buggy() {
			wr.Verdict = corpus.VerdictBuggy
			id := rec.child(lReport)
			rep := report.FromResult(res)
			rec.end(id)
			a.reports = append(a.reports, rep)
			wr.Reports = append(wr.Reports, reportRecord(cp, res.Primary(), rep.Skeleton, res.Findings))
		}
	}
	if m.s.reorder > 0 && !wr.Errored {
		id := rec.child(lReorder)
		rr, err := mk.ExploreReorder(p, m.s.reorder)
		rec.end(id)
		if err != nil {
			a.errs++
			wr.Errored = true
		} else {
			m.tallyReorder(a, wr, rr)
		}
	}
	if m.faults.Enabled() && !wr.Errored {
		id := rec.child(lFault)
		fr, err := mk.ExploreFaults(p, m.faults)
		rec.end(id)
		if err != nil {
			a.errs++
			wr.Errored = true
		} else {
			for _, kr := range fr.Kinds {
				m.tallyFault(a, wr, kr)
			}
		}
	}
	return m.finishRecord(rec, r, a, wr, seq, w.Skeleton, w.String)
}

func (m *mirror) tallyReorder(a *rowAcc, wr *corpus.WorkloadRecord, rr *crashmonkey.ReorderReport) {
	wr.RStates = rr.States
	wr.RChecked = rr.Checked
	wr.RPruned = rr.Pruned
	wr.RClassSkip = rr.ClassSkipped
	wr.RCommuteSkip = rr.CommuteSkipped
	wr.RBroken = len(rr.Broken)
	wr.Replayed += rr.ReplayedWrites
	a.rStates += int64(rr.States)
	a.rChecked += int64(rr.Checked)
	a.rClassSkip += int64(rr.ClassSkipped)
	a.rCommuteSkip += int64(rr.CommuteSkipped)
	a.rBroken += int64(len(rr.Broken))
	a.replayed += rr.ReplayedWrites
}

func (m *mirror) tallyFault(a *rowAcc, wr *corpus.WorkloadRecord, kr crashmonkey.FaultKindReport) {
	wr.Faults = append(wr.Faults, corpus.FaultKindCounts{
		Kind: kr.Kind.String(), States: kr.States, Checked: kr.Checked,
		Pruned: kr.Pruned, ClassSkip: kr.ClassSkipped, Broken: len(kr.Broken),
	})
	k := int(kr.Kind)
	a.fStates[k] += int64(kr.States)
	a.fChecked[k] += int64(kr.Checked)
	a.fClassSkip[k] += int64(kr.ClassSkipped)
	a.fBroken[k] += int64(len(kr.Broken))
	wr.Replayed += kr.ReplayedWrites
	a.replayed += kr.ReplayedWrites
}

// runKV mirrors campaign's runKVWorkload.
func (m *mirror) runKV(rec *recorder, mk *crashmonkey.Monkey, r *tracedRow, a *rowAcc,
	w *kvace.Workload, seq int64) error {
	top := rec.begin(lWorkload, r.idx, seq)
	defer rec.end(top)

	wr := &corpus.WorkloadRecord{Seq: seq, ID: w.ID, Verdict: corpus.VerdictClean}
	id := rec.child(lProfile)
	kp, err := mk.ProfileKV(w)
	rec.end(id)
	if err != nil {
		a.errs++
		wr.Verdict = corpus.VerdictError
		wr.Errored = true
		return m.record(rec, r, wr)
	}
	defer kp.Release()
	last := kp.Checkpoints()
	if last == 0 {
		return m.record(rec, r, wr)
	}
	a.profileNS = append(a.profileNS, rec.spans[id].end-rec.spans[id].start)
	a.dirty += kp.DirtyBytes
	a.dirtyN++

	var classes kvoracle.Counts
	for cp := 1; cp <= last; cp++ {
		id := rec.child(lCheck)
		start := rec.now()
		res, err := mk.TestKVCheckpoint(kp, cp)
		if err == nil {
			rec.add(lConstruct, start, start+int64(res.ReplayDur))
		}
		rec.end(id)
		if err != nil {
			a.errs++
			wr.Errored = true
			break
		}
		wr.States++
		a.states++
		if res.Pruned {
			wr.Pruned++
			a.pruned++
		} else {
			wr.Checked++
			a.checked++
		}
		wr.Replayed += res.ReplayedWrites
		a.replayed += res.ReplayedWrites
		if res.Mountable || res.FsckRepaired {
			classes.Add(res.Class)
		}
		if res.Buggy() {
			wr.Verdict = corpus.VerdictBuggy
			id := rec.child(lReport)
			rep := &report.Report{
				FSName: r.name, WorkloadID: w.ID, Skeleton: w.Skeleton(),
				Consequence: res.Primary().Consequence, Findings: res.Findings, Workload: w.String(),
			}
			rec.end(id)
			a.reports = append(a.reports, rep)
			wr.Reports = append(wr.Reports, reportRecord(cp, res.Primary(), rep.Skeleton, res.Findings))
		}
	}
	if m.s.reorder > 0 && !wr.Errored {
		id := rec.child(lReorder)
		rr, err := mk.ExploreKVReorder(kp, m.s.reorder)
		rec.end(id)
		if err != nil {
			a.errs++
			wr.Errored = true
		} else {
			m.tallyReorder(a, wr, &rr.ReorderReport)
			classes.Merge(rr.Classes)
		}
	}
	if m.faults.Enabled() && !wr.Errored {
		id := rec.child(lFault)
		fr, err := mk.ExploreKVFaults(kp, m.faults)
		rec.end(id)
		if err != nil {
			a.errs++
			wr.Errored = true
		} else {
			for _, kr := range fr.Kinds {
				m.tallyFault(a, wr, kr.FaultKindReport)
				classes.Merge(kr.Classes)
			}
		}
	}
	a.kv.Merge(classes)
	if classes.Total() > 0 {
		wr.KV = &corpus.KVCounts{Legal: classes.Legal, LostAck: classes.LostAck,
			Resurrected: classes.Resurrected, Unreplayable: classes.Unreplayable}
	}
	return m.finishRecord(rec, r, a, wr, seq, w.Skeleton, w.String)
}

// workloadsToLastGroup counts the row's tested workloads, in sequence
// order, up to the one that first reports the last-found bug group: the
// number of workloads a campaign tests before every group has shown up.
func workloadsToLastGroup(groups []*report.Group, tested []int64) int64 {
	var last int64
	for _, g := range groups {
		first := int64(-1)
		for _, rep := range g.Reports {
			seq := seqOf(rep.WorkloadID)
			if first < 0 || seq < first {
				first = seq
			}
		}
		last = max(last, first)
	}
	if last <= 0 {
		return 0
	}
	sorted := append([]int64(nil), tested...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > last }))
}

// seqOf parses the sequence number out of an "ace-<seq>" or "kv-<seq>" id.
func seqOf(id string) int64 {
	n, err := strconv.ParseInt(id[strings.LastIndexByte(id, '-')+1:], 10, 64)
	if err != nil {
		return -1
	}
	return n
}
