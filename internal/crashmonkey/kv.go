package crashmonkey

import (
	"errors"
	"fmt"
	"time"

	"b3/internal/blockdev"
	"b3/internal/bugs"
	"b3/internal/filesys"
	"b3/internal/kvace"
	"b3/internal/kvoracle"
	"b3/internal/kvstore"
)

// Application-level crash testing: instead of a file-system workload checked
// against the file-level oracle, a KV workload runs the kvstore application
// on top of the mounted file system, and every crash state is recovered by
// the *application* (CURRENT → manifest → table → WAL replay) and judged by
// the kvoracle expected-state oracle. This surfaces the bug classes B3's
// file-level checks structurally cannot see: an acknowledged KV update can
// vanish without any persisted *file* losing data the file-level oracle
// knows about, because the lost bytes live inside application files whose
// durability contract only the application understands.
//
// The sweep machinery is shared: checkpoints come from the same Recorder,
// crash states from the same replay cursor and reorder/fault enumerators,
// and verdicts from the same PruneCache — salted with kvOracleSalt and the
// KV expectation fingerprint so KV verdicts never collide with file-level
// ones.

// KVDir is where the store lives on the file system under test.
const KVDir = "/db"

// kvOracleSalt keys KV verdicts in the shared disk-tier prune cache,
// keeping them disjoint from the file-level oracle entries and the
// unchecked reorder/fault mountability entries.
const kvOracleSalt uint64 = 0x4b564f7261636c65 // "KVOracle"

// KVProfile is a recorded run of one KV workload: the shared block-level
// profile plus the per-interval expected-state oracle.
type KVProfile struct {
	Workload *kvace.Workload
	prof     *Profile
	exps     []*kvoracle.Expectation
	// ProfileDur is the wall time of the profiling phase.
	ProfileDur time.Duration
	// DirtyBytes is the COW overlay footprint after the workload.
	DirtyBytes int64
}

// Checkpoints reports the number of persistence points recorded.
func (kp *KVProfile) Checkpoints() int { return kp.prof.rec.Checkpoints() }

// WritesRecorded reports the number of block writes profiled.
func (kp *KVProfile) WritesRecorded() int { return kp.prof.rec.WritesRecorded() }

// Log returns the recorded write log; owned by the profile.
func (kp *KVProfile) Log() []blockdev.Record { return kp.prof.rec.Log() }

// Release returns the profile's device memory to the shared pools.
func (kp *KVProfile) Release() { kp.prof.Release() }

// ProfileKV runs the KV workload against a kvstore on a fresh file system
// over the recording wrapper device, checkpointing after every persistence
// op (sync, flush, reopen) and building the interval oracle.
func (mk *Monkey) ProfileKV(w *kvace.Workload) (*KVProfile, error) {
	start := time.Now()
	blocks := mk.DeviceBlocks
	if blocks == 0 {
		blocks = DefaultDeviceBlocks
	}
	base := blockdev.NewPooledMemDisk(blocks)
	if err := mk.FS.Mkfs(base); err != nil {
		base.Recycle()
		return nil, fmt.Errorf("crashmonkey: mkfs: %w", err)
	}
	overlay := blockdev.NewPooledSnapshot(base)
	rec := blockdev.NewRecorder(overlay)
	p := &Profile{base: base, overlay: overlay, rec: rec}
	m, err := mk.FS.Mount(rec)
	if err != nil {
		p.Release()
		return nil, fmt.Errorf("crashmonkey: mount: %w", err)
	}
	s, err := kvstore.Create(m, KVDir)
	if err != nil {
		p.Release()
		return nil, fmt.Errorf("crashmonkey: kv create: %w", err)
	}
	for i, op := range w.Ops {
		switch op.Kind {
		case kvace.OpPut:
			err = s.Put(op.Key, op.Value)
		case kvace.OpDelete:
			err = s.Delete(op.Key)
		case kvace.OpSync:
			err = s.Sync()
		case kvace.OpFlush:
			err = s.Flush()
		case kvace.OpReopen:
			if err = s.Close(); err == nil {
				// The checkpoint lands before reopening: the crash state at
				// this persistence point is the closed store, and reopening
				// issues only reads.
				rec.Checkpoint()
				s, err = kvstore.Open(m, KVDir)
			}
		case kvace.NumOpKinds:
			err = fmt.Errorf("sentinel op kind")
		}
		if err != nil {
			p.Release()
			return nil, fmt.Errorf("crashmonkey: kv op %d (%s): %w", i, op, err)
		}
		if op.Kind.IsPersistence() && op.Kind != kvace.OpReopen {
			rec.Checkpoint()
		}
	}
	kp := &KVProfile{Workload: w, prof: p, exps: kvoracle.Build(w.Ops)}
	kp.ProfileDur = time.Since(start)
	kp.DirtyBytes = overlay.DirtyBytes()
	if got, want := rec.Checkpoints(), len(kp.exps)-1; got != want {
		kp.Release()
		return nil, fmt.Errorf("crashmonkey: kv %s recorded %d checkpoints, oracle expects %d", w.ID, got, want)
	}
	return kp, nil
}

// KVResult is the outcome of testing one KV crash state.
type KVResult struct {
	Workload   *kvace.Workload
	FSName     string
	Checkpoint int
	Mountable  bool
	// FsckRun / FsckRepaired mirror the file-level result: fsck runs only
	// when the crash state does not mount.
	FsckRun      bool
	FsckRepaired bool
	// Class is the oracle verdict for the recovered store contents;
	// meaningful only when the file system mounted (or was repaired).
	Class    kvoracle.Class
	Findings []Finding
	// ReplayedWrites is the construction cost of this crash state.
	ReplayedWrites int64
	ReplayDur      time.Duration
	CheckDur       time.Duration
	// StateHash / Pruned / PrunedBy mirror the file-level result.
	StateHash uint64
	Pruned    bool
	PrunedBy  string
}

// Buggy reports whether the oracle found a violation.
func (r *KVResult) Buggy() bool { return len(r.Findings) > 0 }

// Primary returns the most severe finding (the report-group key), the zero
// Finding when the state is consistent.
func (r *KVResult) Primary() Finding {
	if len(r.Findings) == 0 {
		return Finding{}
	}
	best := r.Findings[0]
	for _, f := range r.Findings[1:] {
		if severity(f.Consequence) > severity(best.Consequence) {
			best = f
		}
	}
	return best
}

// kvConsequence maps an oracle class to its bugs-registry consequence.
// The switch is total over Class.
func kvConsequence(c kvoracle.Class) bugs.Consequence {
	switch c {
	case kvoracle.ClassLegal:
		return bugs.ConsequenceNone
	case kvoracle.ClassLostAck:
		return bugs.KVLostAckWrite
	case kvoracle.ClassResurrected:
		return bugs.KVResurrectedDelete
	case kvoracle.ClassUnreplayable:
		return bugs.KVUnreplayable
	case kvoracle.NumClasses:
		return bugs.ConsequenceNone
	}
	return bugs.ConsequenceNone
}

// kvClass derives the oracle class back from cached findings — the inverse
// of kvConsequence over a verdict's finding list, severest class wins.
func kvClass(findings []Finding) kvoracle.Class {
	cls := kvoracle.ClassLegal
	for _, f := range findings {
		var c kvoracle.Class
		switch f.Consequence {
		case bugs.KVUnreplayable:
			c = kvoracle.ClassUnreplayable
		case bugs.KVLostAckWrite:
			c = kvoracle.ClassLostAck
		case bugs.KVResurrectedDelete:
			c = kvoracle.ClassResurrected
		default:
			continue
		}
		if kvRank(c) > kvRank(cls) {
			cls = c
		}
	}
	return cls
}

func kvRank(c kvoracle.Class) int {
	switch c {
	case kvoracle.ClassLegal:
		return 0
	case kvoracle.ClassResurrected:
		return 1
	case kvoracle.ClassLostAck:
		return 2
	case kvoracle.ClassUnreplayable:
		return 3
	case kvoracle.NumClasses:
		return -1
	}
	return -1
}

// recoverKVState mounts the crash state (fsck fallback as usual), opens the
// store through the application's own recovery path, and classifies the
// recovered contents against the expectation. The verdict is cacheable:
// recovery and classification are deterministic functions of the device
// contents, the file-system configuration, and the expectation.
func (mk *Monkey) recoverKVState(crash blockdev.Device, exp *kvoracle.Expectation) (*cachedVerdict, error) {
	v := &cachedVerdict{}
	m, err := mk.FS.Mount(crash)
	if err != nil {
		if !errors.Is(err, filesys.ErrCorrupted) {
			return nil, err
		}
		v.fsckRun = true
		if repaired, ferr := mk.FS.Fsck(crash); ferr == nil && repaired {
			if m, err = mk.FS.Mount(crash); err == nil {
				v.fsckRepaired = true
			}
		}
		if !v.fsckRepaired {
			// FS-level broken state: the application never gets to run, so
			// the KV oracle renders no class verdict. The sweep tallies
			// exclude it by its flags (it stays in the file-level Broken
			// accounting); the checkpoint path reports the lower layer's
			// contract breach as the file-level oracle would.
			v.findings = []Finding{{
				Consequence: bugs.Unmountable,
				Path:        "/",
				Detail:      "crash state neither mounted nor was repaired by fsck",
			}}
			return v, nil
		}
	} else {
		v.mountable = true
	}

	s, err := kvstore.Open(m, KVDir)
	if err != nil {
		v.findings = []Finding{{
			Consequence: bugs.KVUnreplayable,
			Path:        KVDir,
			Detail:      err.Error(),
		}}
		return v, nil
	}
	for _, viol := range exp.Check(s.Dump()) {
		v.findings = append(v.findings, Finding{
			Consequence: kvConsequence(viol.Class),
			Path:        KVDir + "/" + viol.Key,
			Detail:      viol.Detail,
		})
	}
	return v, nil
}

// TestKVCheckpoint constructs the crash state for checkpoint cp (1-based),
// mounts it, runs the application's recovery, and checks the store contents
// against the interval oracle.
func (mk *Monkey) TestKVCheckpoint(kp *KVProfile, cp int) (*KVResult, error) {
	if cp < 1 || cp >= len(kp.exps) {
		return nil, fmt.Errorf("crashmonkey: kv checkpoint %d out of range (1..%d)", cp, len(kp.exps)-1)
	}
	exp := kp.exps[cp]
	cv, err := mk.judgeCheckpoint(kp.prof, cp, exp.Fingerprint()^mk.pruneSalt()^kvOracleSalt,
		func(crash *blockdev.Snapshot, _ uint64) (*cachedVerdict, string, error) {
			v, err := mk.recoverKVState(crash, exp)
			if err != nil {
				return nil, "", fmt.Errorf("crashmonkey: kv recover: %w", err)
			}
			return v, "", nil
		})
	if err != nil {
		return nil, err
	}
	return &KVResult{
		Workload:       kp.Workload,
		FSName:         mk.FS.Name(),
		Checkpoint:     cp,
		Mountable:      cv.v.mountable,
		FsckRun:        cv.v.fsckRun,
		FsckRepaired:   cv.v.fsckRepaired,
		Class:          kvClass(cv.v.findings),
		Findings:       cloneFindings(cv.v.findings),
		ReplayedWrites: cv.replayed,
		ReplayDur:      cv.replayDur,
		CheckDur:       cv.checkDur,
		StateHash:      cv.stateHash,
		Pruned:         cv.prunedBy != "",
		PrunedBy:       cv.prunedBy,
	}, nil
}

// RunKV profiles the KV workload and tests its final crash state (the §5.3
// strategy: earlier checkpoints repeat shorter workloads).
func (mk *Monkey) RunKV(w *kvace.Workload) (*KVResult, error) {
	kp, err := mk.ProfileKV(w)
	if err != nil {
		return nil, err
	}
	defer kp.Release()
	if kp.Checkpoints() == 0 {
		return nil, fmt.Errorf("crashmonkey: kv workload %s has no persistence point", w.ID)
	}
	return mk.TestKVCheckpoint(kp, kp.Checkpoints())
}

// KVExampleCap bounds the exemplar findings a KV sweep report retains; the
// class counters stay exact.
const KVExampleCap = 4

// checkpointIntervals maps each epoch of the recorded log to its
// persistence interval: the number of checkpoints completed before the
// epoch's first write. A crash state in flight during epoch e is judged by
// expectation intervals[e] — the acknowledged state of the last completed
// persistence point plus that interval's pending tail. The walk mirrors
// blockdev.Epochs (empty epochs are skipped there, so they accrue no entry
// here either).
func checkpointIntervals(log []blockdev.Record) []int {
	var intervals []int
	cps := 0
	open := false
	for _, rec := range log {
		switch rec.Kind {
		case blockdev.RecWrite:
			if !open {
				intervals = append(intervals, cps)
				open = true
			}
		case blockdev.RecFlush:
			open = false
		case blockdev.RecCheckpoint:
			cps++
			open = false
		}
	}
	return intervals
}

// expForEpoch resolves the oracle expectation for a crash state in flight
// during the given epoch (-1 = the empty state before any write).
func (kp *KVProfile) expForEpoch(intervals []int, epoch int) *kvoracle.Expectation {
	iv := 0
	if epoch >= 0 && epoch < len(intervals) {
		iv = intervals[epoch]
	}
	if iv >= len(kp.exps) {
		iv = len(kp.exps) - 1
	}
	return kp.exps[iv]
}

// KVReorderReport is a bounded-reordering sweep of one KV workload: the
// file-level recovery accounting plus the oracle classification of every
// state the application could recover on.
type KVReorderReport struct {
	ReorderReport
	// Classes tallies the oracle verdicts over the mountable (or repaired)
	// states; FS-level broken states are excluded — they are already
	// violations of the lower layer's contract.
	Classes kvoracle.Counts
	// Examples holds up to KVExampleCap exemplar violations.
	Examples []Finding
}

// KVFaultKindReport is one fault kind's sweep of one KV workload.
type KVFaultKindReport struct {
	FaultKindReport
	Classes  kvoracle.Counts
	Examples []Finding
}

// KVFaultReport summarises the fault-injection sweeps of one KV workload.
type KVFaultReport struct {
	SectorSize int
	Kinds      []KVFaultKindReport
}

// Clean reports whether every state recovered (FS level) and classified
// legal (application level).
func (r *KVFaultReport) Clean() bool {
	for _, kr := range r.Kinds {
		if len(kr.Broken) > 0 || kr.Classes.Violations() > 0 {
			return false
		}
	}
	return true
}

// States returns the total number of states constructed across kinds.
func (r *KVFaultReport) States() int {
	n := 0
	for _, kr := range r.Kinds {
		n += kr.States
	}
	return n
}

// tallyKV folds one verdict into the class counters and exemplar list.
// FS-broken states render no application verdict.
func tallyKV(v *cachedVerdict, counts *kvoracle.Counts, examples *[]Finding) {
	if !v.mountable && !v.fsckRepaired {
		return
	}
	counts.Add(kvClass(v.findings))
	for _, f := range v.findings {
		if len(*examples) >= KVExampleCap {
			break
		}
		*examples = append(*examples, f)
	}
}

// kvJudge is the application-oracle judge: each state is recovered by the
// store and classified against the expectation of the persistence interval
// it is in flight during. Verdicts are cached per (state, interval
// expectation), so the class-prune hoist applies exactly as for the
// file-level sweeps. salt is the sweep's oracle salt; tally folds the
// file-level recovery accounting, counts and examples the oracle classes.
func (mk *Monkey) kvJudge(kp *KVProfile, salt uint64, tally func(epoch int, desc string, v *cachedVerdict),
	counts *kvoracle.Counts, examples *[]Finding) judge {

	intervals := checkpointIntervals(kp.prof.rec.Log())
	return judge{
		salt: func(epoch int) uint64 {
			return salt ^ kvOracleSalt ^ kp.expForEpoch(intervals, epoch).Fingerprint()
		},
		recover: func(crash blockdev.Device, epoch int) (*cachedVerdict, error) {
			return mk.recoverKVState(crash, kp.expForEpoch(intervals, epoch))
		},
		tally: func(epoch int, desc string, v *cachedVerdict) {
			tally(epoch, desc, v)
			tallyKV(v, counts, examples)
		},
	}
}

// ExploreKVReorder sweeps the bounded-reordering crash states of a profiled
// KV run at bound k, classifying every recoverable state through the
// application oracle.
func (mk *Monkey) ExploreKVReorder(kp *KVProfile, k int) (*KVReorderReport, error) {
	rr, err := newReorderReport(kp.prof, k)
	if err != nil {
		return nil, err
	}
	report := &KVReorderReport{ReorderReport: *rr}
	s, err := mk.sweep(kp.prof, space{k: k},
		mk.kvJudge(kp, mk.pruneSalt()^reorderOracleSalt, report.tally, &report.Classes, &report.Examples))
	if err != nil {
		return nil, err
	}
	s.intoReorder(&report.ReorderReport)
	return report, nil
}

// ExploreKVFaults sweeps the fault-injection crash states of a profiled KV
// run for every kind in model, classifying every recoverable state through
// the application oracle.
func (mk *Monkey) ExploreKVFaults(kp *KVProfile, model blockdev.FaultModel) (*KVFaultReport, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	report := &KVFaultReport{SectorSize: model.Sector()}
	for _, kind := range model.Kinds {
		kr := KVFaultKindReport{FaultKindReport: FaultKindReport{Kind: kind}}
		s, err := mk.sweep(kp.prof, faultSpace(kind, model),
			mk.kvJudge(kp, mk.pruneSalt()^faultOracleSalt(kind), kr.tally, &kr.Classes, &kr.Examples))
		if err != nil {
			return nil, fmt.Errorf("crashmonkey: kv %s sweep: %w", kind, err)
		}
		s.intoFault(&kr.FaultKindReport)
		report.Kinds = append(report.Kinds, kr)
	}
	return report, nil
}
