// Package crashmonkey implements the CrashMonkey framework (§5.1): it
// profiles a workload's block IO on a recording wrapper device, inserts
// checkpoints at persistence points, constructs crash states by replaying
// the recorded IO, captures oracles, and runs the AutoChecker — read checks
// comparing persisted files/directories against the oracle, plus write
// checks on a disposable copy-on-write fork of the crash state.
package crashmonkey

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"b3/internal/blockdev"
	"b3/internal/bugs"
	"b3/internal/filesys"
	"b3/internal/workload"
)

// DefaultDeviceBlocks sizes the test device at 100 MiB (Table 3: "start
// with a clean file-system image of size 100MB").
const DefaultDeviceBlocks = 25600

// Monkey tests workloads against one file system.
type Monkey struct {
	// FS is the file system under test.
	FS filesys.FileSystem
	// DeviceBlocks overrides the device size (0 = DefaultDeviceBlocks).
	DeviceBlocks int64
	// SkipWriteChecks disables the destructive write checks.
	SkipWriteChecks bool
	// Prune, when non-nil, enables representative crash-state pruning:
	// states whose (content, oracle) fingerprint was already judged reuse
	// the cached verdict instead of re-running recovery and the checks.
	// The cache may be shared between Monkeys driving the same file-system
	// configuration (see prune.go).
	Prune *PruneCache
	// ScratchStates restores the from-scratch crash-state construction
	// path: a fresh snapshot plus a full log-prefix replay (and an
	// overlay-scan fingerprint) per state, instead of the rolling
	// ReplayCursor. It is the cross-check mode for the incremental engine —
	// identical fingerprints and verdicts, strictly more replayed writes
	// (docs/TESTING.md). Scratch mode also implies NoClassPrune: the
	// reference engine constructs every state.
	ScratchStates bool
	// NoClassPrune disables enumeration-time class pruning: every crash
	// state is constructed even when its fingerprint was already judged,
	// and verdict reuse falls back to the post-construction disk-tier
	// lookup. Cross-check mode — identical verdicts, strictly more
	// constructed states.
	NoClassPrune bool
	// Meter, when non-nil, counts block-level construction and read IO
	// (writes replayed, blocks read, buffer bytes allocated).
	Meter *blockdev.BlockMeter

	// salt caches pruneSalt (constant per Monkey configuration).
	saltOnce sync.Once
	salt     uint64
}

// Profile is a recorded run of one workload: the base image, the IO log
// with checkpoints, and the oracle expectation captured at each checkpoint.
type Profile struct {
	Workload     *workload.Workload
	base         *blockdev.MemDisk
	overlay      *blockdev.Snapshot
	rec          *blockdev.Recorder
	expectations []*Expectation
	// ProfileDur is the wall time of the profiling phase (§6.3).
	ProfileDur time.Duration
	// DirtyBytes is the COW overlay footprint after the workload (§6.5).
	DirtyBytes int64

	// cursor is the rolling replay cursor the incremental construction
	// path advances through the log; created on first use, guarded by
	// cursorMu. TestCheckpoint calls on one Profile must not run
	// concurrently in the default incremental mode: forks read through the
	// rolling snapshot, which a concurrent seek would be mutating. Every
	// caller (Run, RunAll, the campaign workers) tests a profile from a
	// single goroutine.
	cursorMu sync.Mutex
	cursor   *blockdev.ReplayCursor
}

// state constructs the crash state for checkpoint cp: in the default
// incremental mode it advances the rolling cursor and hands out a COW fork
// (recovery writes land in the fork, never the rolling base); in scratch
// mode it replays the whole log prefix onto a fresh snapshot. Returns the
// state device and the number of writes replayed to build it.
//
// classified, when non-nil, is consulted with the state's fingerprint after
// the (incremental) seek but before the fork: returning true means the
// caller already knows the verdict for that fingerprint, and state returns
// a nil snapshot without constructing anything. Scratch mode ignores it —
// the cross-check engine always constructs.
func (p *Profile) state(cp int, scratch bool, meter *blockdev.BlockMeter,
	classified func(fp uint64) bool) (*blockdev.Snapshot, int64, error) {
	if scratch {
		crash := blockdev.NewSnapshot(p.base)
		// Meter the scratch engine too, or the -v cross-check comparison
		// would show zero read/alloc traffic against the incremental rows.
		crash.SetMeter(meter)
		n, err := blockdev.ReplayToCheckpoint(crash, p.rec.Log(), cp)
		if err != nil {
			return nil, n, err
		}
		if meter != nil {
			meter.BlocksReplayed.Add(n)
		}
		return crash, n, nil
	}
	p.cursorMu.Lock()
	defer p.cursorMu.Unlock()
	if p.cursor == nil {
		p.cursor = blockdev.NewReplayCursor(p.base, p.rec.Log())
		p.cursor.SetMeter(meter)
	}
	n, err := p.cursor.SeekCheckpoint(cp)
	if err != nil {
		return nil, n, err
	}
	if classified != nil && classified(p.cursor.Fingerprint()) {
		return nil, n, nil
	}
	return p.cursor.Fork(), n, nil
}

// Release returns the profile's device memory to the shared pools: the
// rolling cursor's overlay, the profiling overlay, and the pooled base
// image itself. The profile — and anything still reading through it, like
// an unreleased crash-state fork — must not be used afterwards. Campaign
// workers call it once a workload's sweeps are done, which is what lets
// ProfileWorkload serve every workload from a recycled device instead of
// allocating a device-sized table each time.
func (p *Profile) Release() {
	p.cursorMu.Lock()
	if p.cursor != nil {
		p.cursor.Release()
		p.cursor = nil
	}
	p.cursorMu.Unlock()
	if p.overlay != nil {
		p.overlay.Release()
		p.overlay = nil
	}
	if p.base != nil {
		p.base.Recycle()
		p.base = nil
	}
}

// Checkpoints reports the number of persistence points recorded.
func (p *Profile) Checkpoints() int { return p.rec.Checkpoints() }

// WritesRecorded reports the number of block writes profiled.
func (p *Profile) WritesRecorded() int { return p.rec.WritesRecorded() }

// Log returns the recorded write log the crash-state sweeps replay. The
// slice is owned by the profile; callers must not mutate it.
func (p *Profile) Log() []blockdev.Record { return p.rec.Log() }

// WritesBetweenCheckpoints supports the §4.1 crash-state-space ablation.
func (p *Profile) WritesBetweenCheckpoints() []int {
	return blockdev.CountWritesBetweenCheckpoints(p.rec.Log())
}

// PrefixState constructs the crash state after the first n recorded block
// writes, ignoring persistence points — the mid-operation crash-state
// extension the paper leaves open (§4.4 limitation 2). It returns the
// device and how many writes were actually applied.
func (p *Profile) PrefixState(n int) (blockdev.Device, int, error) {
	crash := blockdev.NewSnapshot(p.base)
	applied, err := blockdev.ReplayPrefix(crash, p.rec.Log(), n)
	return crash, applied, err
}

// Result is the outcome of testing one crash state.
type Result struct {
	Workload   *workload.Workload
	FSName     string
	Checkpoint int
	Mountable  bool
	// FsckRun reports whether fsck was attempted after a mount failure,
	// and FsckRepaired whether it claimed success (§5.1: "fsck is run only
	// if the recovered file system is un-mountable").
	FsckRun      bool
	FsckRepaired bool
	Findings     []Finding
	ReplayDur    time.Duration
	CheckDur     time.Duration
	// ReplayedWrites is the number of recorded writes replayed to construct
	// this crash state. The incremental cursor replays only the delta since
	// the previous checkpoint; the scratch path replays the whole prefix.
	ReplayedWrites int64
	// StateHash is the dirty-block fingerprint of the crash state (set
	// only when pruning is enabled).
	StateHash uint64
	// Pruned reports that the verdict was reused from the prune cache
	// rather than re-checked; PrunedBy says which tier matched ("disk":
	// identical device contents, "tree": identical recovered tree).
	Pruned   bool
	PrunedBy string
}

// Buggy reports whether any crash-consistency violation was found.
func (r *Result) Buggy() bool { return len(r.Findings) > 0 }

// Primary returns the most severe finding.
func (r *Result) Primary() Finding {
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

// severityOrder ranks consequences least- to most-severe. It must stay
// exhaustive over the bugs registry (TestSeverityIsTotal): a consequence
// missing here would otherwise silently rank below everything.
var severityOrder = []bugs.Consequence{
	bugs.WrongLinkCount, bugs.EmptySymlink, bugs.XattrInconsistent,
	bugs.HoleNotPersisted, bugs.BlocksLost, bugs.WrongSize,
	bugs.ResurrectedEntry, bugs.DataLoss, bugs.DirEntryMissing,
	bugs.WrongLocation, bugs.CannotCreateFiles, bugs.UnremovableDir,
	bugs.FileMissing, bugs.FileInBothLocations, bugs.RenameBothLost,
	bugs.KVResurrectedDelete, bugs.KVLostAckWrite, bugs.KVUnreplayable,
	bugs.Unmountable,
}

var severityRank = func() map[bugs.Consequence]int {
	m := make(map[bugs.Consequence]int, len(severityOrder))
	for i, c := range severityOrder {
		m[c] = i + 1
	}
	return m
}()

// severity is total: ConsequenceNone ranks below every real consequence, and
// a consequence not yet placed in severityOrder ranks above everything —
// new failure classes must surface as the primary finding, never be hidden
// behind a known one.
func severity(c bugs.Consequence) int {
	if c == bugs.ConsequenceNone {
		return 0
	}
	if r, ok := severityRank[c]; ok {
		return r
	}
	return len(severityOrder) + 1
}

// ProfileWorkload runs the workload on a fresh file system over the
// recording wrapper device, checkpointing after every persistence point and
// snapshotting the oracle (§5.1 "Profiling workloads").
func (mk *Monkey) ProfileWorkload(w *workload.Workload) (*Profile, error) {
	start := time.Now()
	blocks := mk.DeviceBlocks
	if blocks == 0 {
		blocks = DefaultDeviceBlocks
	}
	// The base and the profiling overlay both cycle through the shared
	// pools: Profile.Release hands them back once the workload's sweeps are
	// done, so a campaign reuses one device-sized table per worker instead
	// of allocating one per workload (the dominant term of the pre-pool
	// allocation profile).
	base := blockdev.NewPooledMemDisk(blocks)
	if err := mk.FS.Mkfs(base); err != nil {
		base.Recycle()
		return nil, fmt.Errorf("crashmonkey: mkfs: %w", err)
	}
	overlay := blockdev.NewPooledSnapshot(base)
	rec := blockdev.NewRecorder(overlay)
	p := &Profile{Workload: w, base: base, overlay: overlay, rec: rec}
	m, err := mk.FS.Mount(rec)
	if err != nil {
		p.Release()
		return nil, fmt.Errorf("crashmonkey: mount: %w", err)
	}
	tracker := NewTracker(mk.FS.Guarantees())

	for i, op := range w.Ops {
		if err := workload.Apply(m, op, i); err != nil {
			p.Release()
			return nil, fmt.Errorf("crashmonkey: op %d (%s): %w", i, op, err)
		}
		if err := tracker.Apply(op, i); err != nil {
			p.Release()
			return nil, fmt.Errorf("crashmonkey: oracle op %d (%s): %w", i, op, err)
		}
		if op.Kind.IsPersistence() {
			rec.Checkpoint()
			p.expectations = append(p.expectations, tracker.Snapshot())
		}
	}
	p.ProfileDur = time.Since(start)
	p.DirtyBytes = overlay.DirtyBytes()
	return p, nil
}

// TestCheckpoint constructs the crash state for checkpoint cp (1-based),
// mounts it (running recovery), and checks consistency.
func (mk *Monkey) TestCheckpoint(p *Profile, cp int) (*Result, error) {
	if cp < 1 || cp > len(p.expectations) {
		return nil, fmt.Errorf("crashmonkey: checkpoint %d out of range (1..%d)", cp, len(p.expectations))
	}
	exp := p.expectations[cp-1]
	cv, err := mk.judgeCheckpoint(p, cp, exp.Fingerprint()^mk.pruneSalt(),
		func(crash *blockdev.Snapshot, oracle uint64) (*cachedVerdict, string, error) {
			return mk.checkState(crash, exp, oracle)
		})
	if err != nil {
		return nil, err
	}
	return &Result{
		Workload:       p.Workload,
		FSName:         mk.FS.Name(),
		Checkpoint:     cp,
		Mountable:      cv.v.mountable,
		FsckRun:        cv.v.fsckRun,
		FsckRepaired:   cv.v.fsckRepaired,
		Findings:       cloneFindings(cv.v.findings),
		ReplayDur:      cv.replayDur,
		CheckDur:       cv.checkDur,
		ReplayedWrites: cv.replayed,
		StateHash:      cv.stateHash,
		Pruned:         cv.prunedBy != "",
		PrunedBy:       cv.prunedBy,
	}, nil
}

// checkState renders the file-level verdict of one constructed crash state:
// mount (fsck as the last resort, §5.1), then the read checks against exp
// and the write checks. With pruning, distinct disk images recovering to
// the same logical tree share a verdict through the tree tier (the
// representative-testing insight), reported as "tree".
func (mk *Monkey) checkState(crash *blockdev.Snapshot, exp *Expectation, oracle uint64) (*cachedVerdict, string, error) {
	m, err := mk.FS.Mount(crash)
	if err != nil {
		if !errors.Is(err, filesys.ErrCorrupted) {
			return nil, "", fmt.Errorf("crashmonkey: mount: %w", err)
		}
		v := &cachedVerdict{fsckRun: true, findings: []Finding{{
			Consequence: bugs.Unmountable,
			Path:        "/",
			Detail:      err.Error(),
		}}}
		repaired, ferr := mk.FS.Fsck(crash)
		v.fsckRepaired = repaired && ferr == nil
		return v, "", nil
	}

	// One walk of the recovered state feeds both the tree-tier hash and
	// the read checks. The index (maps, inode slab, file contents) is
	// recycled once the verdict is composed — findings are strings, so
	// nothing below retains index memory.
	idx, ierr := buildIndex(m)
	defer idx.release()

	var treeKey stateKey
	haveTree := false
	if mk.Prune != nil && ierr == nil {
		if th, terr := hashIndex(idx); terr == nil {
			treeKey, haveTree = stateKey{state: th, oracle: oracle}, true
			if findings, ok := mk.Prune.lookupTree(treeKey); ok {
				return &cachedVerdict{mountable: true, findings: findings}, "tree", nil
			}
		}
	}

	var findings []Finding
	if ierr != nil {
		findings = append(findings, walkFailure(ierr))
	} else {
		findings = append(findings, exp.checkReadIndexed(idx)...)
	}
	if !mk.SkipWriteChecks {
		// Write checks are destructive: run them on a COW fork so the
		// crash state itself is untouched.
		fork := blockdev.NewSnapshot(crash)
		if fm, err := mk.FS.Mount(fork); err == nil {
			findings = append(findings, CheckWrite(fm)...)
		} else {
			findings = append(findings, Finding{
				Consequence: bugs.Unmountable,
				Path:        "/",
				Detail:      fmt.Sprintf("write-check remount failed: %v", err),
			})
		}
	}
	if haveTree {
		mk.Prune.storeTree(treeKey, findings)
	}
	return &cachedVerdict{mountable: true, findings: findings}, "", nil
}

// Run profiles the workload and tests its final crash state. Per the §5.3
// testing strategy, earlier checkpoints of a seq-N workload are equivalent
// to already-explored shorter workloads, so only the last one is tested.
func (mk *Monkey) Run(w *workload.Workload) (*Result, error) {
	p, err := mk.ProfileWorkload(w)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	if len(p.expectations) == 0 {
		return nil, fmt.Errorf("crashmonkey: workload %s has no persistence point", w.ID)
	}
	return mk.TestCheckpoint(p, len(p.expectations))
}

// RunAll tests every checkpoint of the workload (the exhaustive variant).
func (mk *Monkey) RunAll(w *workload.Workload) ([]*Result, error) {
	p, err := mk.ProfileWorkload(w)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	out := make([]*Result, 0, len(p.expectations))
	for cp := 1; cp <= len(p.expectations); cp++ {
		r, err := mk.TestCheckpoint(p, cp)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
