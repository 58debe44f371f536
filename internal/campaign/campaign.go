// Package campaign orchestrates full B3 testing runs: ACE generates
// workloads in a bounded space, a pool of workers drives CrashMonkey over
// them (the in-process analogue of the paper's 780-VM cluster, §6.1), and
// reports are grouped and deduplicated (§5.3). It also gathers the
// performance and resource statistics of §6.3–§6.5.
//
// Two departures from the paper make campaigns scale further:
//
//   - Every persistence point of a workload is crash-tested (the paper's
//     §5.3 strategy tested only the last), with representative crash-state
//     pruning reusing verdicts for states already judged — so the broader
//     coverage costs little more than final-only testing. FinalOnly and
//     NoPrune restore the paper's behaviour.
//   - Progress can be persisted to an append-only per-profile corpus shard
//     (internal/corpus), checkpointed periodically, and resumed after a
//     kill: generation is deterministic, so recorded sequence numbers are
//     skipped and their verdicts folded back into the statistics.
package campaign

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/bugs"
	"b3/internal/corpus"
	"b3/internal/crashmonkey"
	"b3/internal/filesys"
	"b3/internal/kvace"
	"b3/internal/kvoracle"
	"b3/internal/report"
	"b3/internal/workload"
)

// Config configures one campaign.
type Config struct {
	// FS is the file system under test (safe for concurrent mounts).
	FS filesys.FileSystem
	// Bounds is the ACE exploration space (ignored when KV is set).
	Bounds ace.Bounds
	// KV, when non-nil, switches the campaign to the application-level
	// workload family: the bounded kvace space is enumerated instead of the
	// ACE file-system space, each workload drives a kvstore on the mounted
	// file system, and every crash state is recovered by the application
	// and judged by the kvoracle expected-state oracle instead of the
	// file-level oracle. All the campaign machinery — sampling, sharding,
	// corpus resume, reorder and fault sweeps, pruning — applies unchanged.
	KV *kvace.Bounds
	// Workers sets the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// MaxWorkloads stops generation after this many workloads (0 = all).
	MaxWorkloads int64
	// SampleEvery tests only every n-th workload (1 or 0 = all). The
	// space is still enumerated fully, so generation counts are exact.
	SampleEvery int64
	// KnownDB deduplicates previously reported bugs (§5.3); may be nil.
	KnownDB *report.KnownDB
	// SkipWriteChecks speeds up large sweeps at the cost of missing
	// un-removable-dir and cannot-create consequences.
	SkipWriteChecks bool

	// FinalOnly restores the paper's §5.3 strategy of testing only the
	// final persistence point of each workload. The default crash-tests
	// every persistence point.
	FinalOnly bool
	// Reorder, when positive, additionally sweeps every workload's
	// bounded-reordering crash states at that bound (§4.4 limitation 2):
	// in-order write prefixes plus the in-flight epoch with up to Reorder
	// writes dropped. Those states are judged for recoverability
	// (mount/fsck), not against the oracle, and byte-identical states share
	// one verdict through the row's prune cache. 0 disables the sweep.
	Reorder int
	// Faults, when its Kinds list is non-empty, additionally sweeps every
	// workload's fault-injection crash states for each listed kind — torn
	// writes at FaultModel sector granularity, zeroed/bit-flipped
	// corruption of unsynced blocks, and misdirected writes (the axis
	// orthogonal to Reorder). Like reorder states these are judged for
	// recoverability (mount/fsck), not against the oracle, and
	// byte-identical states within a kind share one verdict through the
	// row's prune cache. The zero value disables the sweeps.
	Faults blockdev.FaultModel
	// NoPrune disables representative crash-state pruning: every crash
	// state is checked against the oracle. This is the cross-check mode —
	// it must produce the identical set of bug verdicts, only slower.
	NoPrune bool
	// ScratchStates constructs every crash state from scratch (fresh
	// snapshot + full log-prefix replay) instead of through the rolling
	// replay cursor. Like NoPrune this is a cross-check mode: identical
	// fingerprints and verdicts, strictly more replayed writes. Excluded
	// from the config fingerprint for the same reason prune mode is —
	// construction strategy never changes verdicts.
	ScratchStates bool
	// NoClassPrune disables enumeration-time class pruning: every crash
	// state is constructed even when its fingerprint was already judged,
	// and verdict reuse falls back to the post-construction cache lookup.
	// Cross-check mode — identical verdicts, strictly more constructed
	// states. Excluded from the config fingerprint like the other
	// construction-strategy toggles.
	NoClassPrune bool
	// PruneCap bounds each prune-cache tier (entries). 0 uses
	// crashmonkey.DefaultPruneCap; negative means unbounded. Eviction is
	// verdict-preserving: an evicted state that recurs is re-checked.
	PruneCap int

	// Shard and NumShards partition the campaign across processes: when
	// NumShards > 1, only workloads whose ACE sequence number satisfies
	// seq mod NumShards == Shard are tested (the residue-class partition
	// of ace.Generator — deterministic, disjoint, union = the full space).
	// With SampleEvery > 1 the partition applies to the sampled
	// subsequence instead — workload sample·m belongs to shard m mod
	// NumShards — so the classes stay balanced for every (sample, shards)
	// pair; partitioning raw sequence numbers would starve every shard
	// whose residue never hits a sample multiple (e.g. sample 20, shard
	// 1/2: multiples of 20 are all even). Each shard writes its own corpus
	// shard recording its class; MergeStats folds a complete residue
	// system back into one campaign. NumShards of 0 or 1 means unsharded.
	Shard     int
	NumShards int

	// Interrupt, when non-nil, requests a graceful early stop: once the
	// channel is closed, generation stops feeding new workloads, in-flight
	// workloads drain and are recorded, corpus shards are checkpointed and
	// closed WITHOUT a completion marker (the shard stays resumable, never
	// mergeable), and RunMatrix returns the partial statistics alongside
	// ErrInterrupted. This is the clean half of crash tolerance: a SIGINT'd
	// campaign loses nothing instead of leaning on torn-tail recovery.
	Interrupt <-chan struct{}

	// OnProgress, when non-nil, receives cumulative progress snapshots
	// (summed across matrix rows) every ProgressEvery while the campaign
	// runs, plus one final snapshot when the worker pool drains. Long
	// sweeps use it for a live states/s / replayed-writes/s / ETA line.
	OnProgress func(Progress)
	// ProgressEvery is the snapshot interval (0 = DefaultProgressEvery).
	ProgressEvery time.Duration

	// CorpusDir, when set, persists per-workload progress to an
	// append-only JSONL shard under this directory (internal/corpus).
	CorpusDir string
	// ProfileLabel names the shard (cosmetic; the shard key always
	// includes the configuration fingerprint). Defaults to "campaign".
	ProfileLabel string
	// Resume loads the corpus shard and skips workloads already recorded,
	// folding their verdicts into the statistics. The shard must have been
	// written by a campaign with the same bounds and testing options.
	Resume bool
	// CheckpointEvery overrides the corpus fsync interval in records
	// (0 = corpus.DefaultFlushEvery).
	CheckpointEvery int

	// KnownDBFor, when set, supplies a per-file-system known-bug database
	// for matrix campaigns; it takes precedence over KnownDB.
	KnownDBFor func(fsName string) *report.KnownDB
}

// configFingerprint identifies everything that determines per-workload
// verdicts and sequence numbering, so a corpus shard is only resumed by a
// compatible campaign. Prune mode is deliberately excluded: pruning is
// verdict-preserving, so progress survives toggling it. The shard residue
// class is also excluded — it selects which workloads run, not what any
// workload's verdict is — and lives in corpus.Meta.Shard/NumShards (and the
// shard's file key) instead, which is what lets MergeStats group the shards
// of one campaign by this base fingerprint.
func (cfg *Config) configFingerprint() string {
	sample := cfg.SampleEvery
	if sample <= 0 {
		sample = 1
	}
	space := cfg.Bounds.Fingerprint()
	if cfg.KV != nil {
		space = cfg.KV.Fingerprint()
	}
	fp := fmt.Sprintf("%s|sample=%d|final=%t|writechecks=%t|reorder=%d",
		space, sample, cfg.FinalOnly, !cfg.SkipWriteChecks,
		max(cfg.Reorder, 0))
	// Fault segments are appended only when the axis is enabled, so every
	// pre-fault corpus shard keeps its exact key and stays resumable; when
	// enabled, resume and merge refuse mixed fault sets or sector sizes.
	if cfg.Faults.Enabled() {
		m := cfg.Faults.Canonical()
		fp += fmt.Sprintf("|faults=%s|sector=%d", m, m.SectorSize)
	}
	// The workload-family segment is likewise appended only for the KV
	// family, keeping every file-level corpus shard's key byte-identical to
	// what older builds wrote. The kvace space hash alone would already
	// separate the families; the explicit segment makes the corpus Meta
	// self-describing and gives DiffMeta a knob to name.
	if cfg.KV != nil {
		fp += "|workload=kv"
	}
	return fp
}

// numShards normalizes Config.NumShards: 0 and 1 both mean unsharded.
func (cfg *Config) numShards() int {
	if cfg.NumShards <= 1 {
		return 0
	}
	return cfg.NumShards
}

// DefaultProgressEvery is the default Config.OnProgress interval.
const DefaultProgressEvery = 5 * time.Second

// ErrInterrupted reports a campaign stopped early through Config.Interrupt.
// The returned statistics cover the work finished before the stop; corpus
// shards are checkpointed (every recorded workload is durable) but carry no
// completion marker, so they resume exactly where the interrupt landed.
var ErrInterrupted = errors.New("campaign: interrupted")

// interrupted reports whether the config's interrupt channel has fired.
func (cfg *Config) interrupted() bool {
	if cfg.Interrupt == nil {
		return false
	}
	select {
	case <-cfg.Interrupt:
		return true
	default:
		return false
	}
}

// Progress is one cumulative campaign snapshot, summed across matrix rows.
// Fields are totals since the campaign started; callers derive rates by
// differencing consecutive snapshots.
type Progress struct {
	// Elapsed is the time since the campaign started.
	Elapsed time.Duration
	// Workloads is the number of workloads finished so far: tested,
	// errored, or folded in from a resumed corpus shard.
	Workloads int64
	// States is the number of crash states constructed so far (checkpoint
	// sweep plus reorder and fault sweeps).
	States int64
	// FaultStates is the fault-injection share of States.
	FaultStates int64
	// ReplayedWrites is the number of recorded writes replayed so far to
	// construct those states.
	ReplayedWrites int64
}

// Stats is the campaign outcome.
type Stats struct {
	FSName    string
	Generated int64
	Tested    int64
	Failed    int64
	Errors    int64

	// Shard and NumShards echo the residue-class partition the campaign
	// ran with (0/0 when unsharded): this Stats covers only workloads with
	// seq mod NumShards == Shard.
	Shard     int
	NumShards int

	// Crash-state accounting: states constructed, oracle checks actually
	// run, and checks skipped by representative pruning (split by tier).
	StatesTotal   int64
	StatesChecked int64
	StatesPruned  int64
	PrunedDisk    int64
	PrunedTree    int64
	// DistinctStates is the number of distinct disk-tier (state, oracle)
	// pairs the prune cache ended up holding (0 when pruning is off).
	// Tree-tier entries are a subset view and not included.
	DistinctStates int64
	// PruneCap is the per-tier cache bound the campaign ran with (0 when
	// pruning is off); DiskEvictions/TreeEvictions count entries dropped
	// to stay under it.
	PruneCap      int
	DiskEvictions int64
	TreeEvictions int64

	// Reorder accounting (zero when Config.Reorder is 0). ReorderBound is
	// the bound the campaign ran with; ReorderStates counts the
	// bounded-reordering crash states enumerated, ReorderChecked the
	// recoveries actually run, ReorderPruned the verdicts reused from the
	// prune cache after construction, and ReorderBroken the states that
	// neither mounted nor were repaired by fsck — violations of the
	// core-mechanism assumption. ReorderClassSkipped counts states never
	// constructed (enumeration-time class hit); it is included in
	// ReorderStates.
	ReorderBound        int
	ReorderStates       int64
	ReorderChecked      int64
	ReorderPruned       int64
	ReorderClassSkipped int64
	ReorderBroken       int64

	// Fault-injection accounting (empty when Config.Faults is disabled).
	// FaultSector is the torn-write sector granularity the campaign ran
	// with; FaultKinds holds one row per configured kind in canonical kind
	// order, mirroring the reorder counters per kind.
	FaultSector int
	FaultKinds  []FaultKindStats

	// KVClasses tallies the application-oracle verdicts of a KV campaign
	// (all zero for the file-level workload family): every crash state the
	// application could recover on — checkpoint, reorder, and fault states
	// combined — classified legal, lost-acknowledged-write,
	// resurrected-delete, or unreplayable. FS-level broken states render no
	// application verdict and are excluded (they stay in the Broken
	// counters). The totals are deterministic per workload, so they are
	// shard-stable and resume/merge exactly.
	KVClasses kvoracle.Counts

	// ReplayedWrites counts the recorded writes replayed to construct
	// every crash state of the campaign (checkpoint sweeps plus reorder
	// sweeps, resumed records folded in). ReplayedWrites/states is the
	// construction cost the incremental cursor engine minimises.
	ReplayedWrites int64
	// BlocksRead and BytesAllocated are the live BlockMeter counters:
	// block reads served while mounting/checking states, and buffer bytes
	// the block layer had to allocate (pooled and borrowed IO is free).
	// Like the duration aggregates they cover live workloads only.
	BlocksRead     int64
	BytesAllocated int64

	// Resumed counts workloads whose verdicts were folded in from the
	// corpus shard instead of being re-tested; CorpusPath is the shard.
	Resumed    int64
	CorpusPath string

	Groups      []*report.Group
	FreshGroups []*report.Group
	KnownGroups []*report.Group

	Elapsed     time.Duration
	GenDur      time.Duration
	ProfileDur  time.Duration
	ReplayDur   time.Duration
	CheckDur    time.Duration
	MaxDirty    int64
	TotalDirty  int64
	DirtySample int64
}

// GenRate returns workloads generated per second (§6.4).
func (s *Stats) GenRate() float64 {
	if s.GenDur <= 0 {
		return 0
	}
	return float64(s.Generated) / s.GenDur.Seconds()
}

// TestRate returns workloads tested per second.
func (s *Stats) TestRate() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Tested) / s.Elapsed.Seconds()
}

// PruneRate returns the fraction of crash states whose oracle check was
// skipped.
func (s *Stats) PruneRate() float64 {
	if s.StatesTotal == 0 {
		return 0
	}
	return float64(s.StatesPruned) / float64(s.StatesTotal)
}

// ReplayPerState reports the mean number of writes replayed to construct one
// crash state (checkpoint, reorder, and fault states combined) — the
// construction cost the incremental cursor engine minimises.
func (s *Stats) ReplayPerState() float64 {
	states := s.StatesTotal + s.ReorderStates + s.FaultStates()
	if states == 0 {
		return 0
	}
	return float64(s.ReplayedWrites) / float64(states)
}

// FaultKindStats is the campaign-level accounting of one fault kind's
// sweeps: states enumerated, recoveries run, verdicts reused from the prune
// cache after construction, states never constructed thanks to an
// enumeration-time class hit, and states that neither mounted nor were
// repaired.
type FaultKindStats struct {
	Kind         string
	States       int64
	Checked      int64
	Pruned       int64
	ClassSkipped int64
	Broken       int64
}

// FaultStates returns the total fault-injection states across kinds.
func (s *Stats) FaultStates() int64 {
	var n int64
	for _, f := range s.FaultKinds {
		n += f.States
	}
	return n
}

// FaultBroken returns the total broken fault states across kinds.
func (s *Stats) FaultBroken() int64 {
	var n int64
	for _, f := range s.FaultKinds {
		n += f.Broken
	}
	return n
}

// faultCell renders one kind's matrix-table cell ("states/broken", or "-"
// when the campaign did not sweep that kind).
func (s *Stats) faultCell(kind string) string {
	for _, f := range s.FaultKinds {
		if f.Kind == kind {
			return fmt.Sprintf("%d/%d", f.States, f.Broken)
		}
	}
	return "-"
}

// BlockIOSummary renders the block-layer IO counters (the -v campaign line
// CI logs watch for replay-cost regressions).
func (s *Stats) BlockIOSummary() string {
	return fmt.Sprintf("block io on %s: %d writes replayed (%.1f/state), %d blocks read, %d KiB allocated",
		s.FSName, s.ReplayedWrites, s.ReplayPerState(), s.BlocksRead, s.BytesAllocated/1024)
}

// AvgDirtyBytes reports the mean COW overlay footprint per workload (§6.5).
func (s *Stats) AvgDirtyBytes() int64 {
	if s.DirtySample == 0 {
		return 0
	}
	return s.TotalDirty / s.DirtySample
}

// counters aggregates worker-side statistics.
type counters struct {
	tested, failed, errs          atomic.Int64
	resumed                       atomic.Int64
	statesTotal, statesChecked    atomic.Int64
	statesPruned                  atomic.Int64
	prunedDisk, prunedTree        atomic.Int64
	reorderStates, reorderChecked atomic.Int64
	reorderPruned, reorderBroken  atomic.Int64
	reorderClassSkip              atomic.Int64
	faultStates, faultChecked     [blockdev.NumFaultKinds]atomic.Int64
	faultPruned, faultBroken      [blockdev.NumFaultKinds]atomic.Int64
	faultClassSkip                [blockdev.NumFaultKinds]atomic.Int64
	kvLegal, kvLostAck            atomic.Int64
	kvResurrected, kvUnreplay     atomic.Int64
	replayedWrites                atomic.Int64
	profNS, replayNS, checkNS     atomic.Int64
	dirtyTot, dirtyN, dirtyMax    atomic.Int64
}

// into copies the verdict and state counters into stats. Shared by the
// live campaign path (fsRun.finish) and the corpus merge layer, so both
// report through identical accounting.
func (cnt *counters) into(stats *Stats) {
	stats.Tested = cnt.tested.Load()
	stats.Failed = cnt.failed.Load()
	stats.Errors = cnt.errs.Load()
	stats.Resumed = cnt.resumed.Load()
	stats.StatesTotal = cnt.statesTotal.Load()
	stats.StatesChecked = cnt.statesChecked.Load()
	stats.StatesPruned = cnt.statesPruned.Load()
	stats.PrunedDisk = cnt.prunedDisk.Load()
	stats.PrunedTree = cnt.prunedTree.Load()
	stats.ReorderStates = cnt.reorderStates.Load()
	stats.ReorderChecked = cnt.reorderChecked.Load()
	stats.ReorderPruned = cnt.reorderPruned.Load()
	stats.ReorderClassSkipped = cnt.reorderClassSkip.Load()
	stats.ReorderBroken = cnt.reorderBroken.Load()
	stats.ReplayedWrites = cnt.replayedWrites.Load()
	stats.FaultKinds = nil
	for k := 0; k < blockdev.NumFaultKinds; k++ {
		fs := FaultKindStats{
			Kind:         blockdev.FaultKind(k).String(),
			States:       cnt.faultStates[k].Load(),
			Checked:      cnt.faultChecked[k].Load(),
			Pruned:       cnt.faultPruned[k].Load(),
			ClassSkipped: cnt.faultClassSkip[k].Load(),
			Broken:       cnt.faultBroken[k].Load(),
		}
		if fs.States+fs.Checked+fs.Pruned+fs.ClassSkipped+fs.Broken > 0 {
			stats.FaultKinds = append(stats.FaultKinds, fs)
		}
	}
	stats.KVClasses = kvoracle.Counts{
		Legal:        cnt.kvLegal.Load(),
		LostAck:      cnt.kvLostAck.Load(),
		Resurrected:  cnt.kvResurrected.Load(),
		Unreplayable: cnt.kvUnreplay.Load(),
	}
}

// addKV folds one sweep's class counts into the campaign counters.
func (cnt *counters) addKV(c kvoracle.Counts) {
	cnt.kvLegal.Add(c.Legal)
	cnt.kvLostAck.Add(c.LostAck)
	cnt.kvResurrected.Add(c.Resurrected)
	cnt.kvUnreplay.Add(c.Unreplayable)
}

// testShardHook, when non-nil, observes every corpus shard a campaign
// opens. Tests use it to inject mid-run shard failures.
var testShardHook func(*corpus.Shard)

// fsRun is the per-file-system state of a (matrix) campaign: one row of the
// matrix, with its own prune cache, corpus shard, counters, and reports.
// All rows share one worker pool.
type fsRun struct {
	cfg   Config // per-FS copy: cfg.FS is this row's file system
	cache *crashmonkey.PruneCache
	shard *corpus.Shard
	done  map[int64]*corpus.WorkloadRecord
	meter blockdev.BlockMeter

	cnt     counters
	mu      sync.Mutex
	reports []*report.Report

	corpusMu     sync.Mutex
	corpusErr    error
	corpusFailed atomic.Bool

	stats *Stats
}

func (r *fsRun) appendRecord(rec *corpus.WorkloadRecord) {
	if r.shard == nil {
		return
	}
	if err := r.shard.Append(rec); err != nil {
		r.corpusMu.Lock()
		if r.corpusErr == nil {
			r.corpusErr = err
		}
		r.corpusMu.Unlock()
		r.corpusFailed.Store(true)
	}
}

func (r *fsRun) emit(rep *report.Report) {
	r.mu.Lock()
	r.reports = append(r.reports, rep)
	r.mu.Unlock()
}

// foldRecord replays one recorded workload verdict into counters and the
// report stream: state counts and reports fold in even for workloads that
// later errored. Timing and dirty-byte aggregates are deliberately not
// restored — records carry verdicts, not durations — so Summary averages
// those over live workloads only. Shared by campaign resume (fsRun) and the
// multi-shard merge layer (MergeStats), so both fold through identical
// accounting.
func foldRecord(rec *corpus.WorkloadRecord, fsName string, noPrune bool,
	cnt *counters, emit func(*report.Report)) {

	cnt.statesTotal.Add(int64(rec.States))
	cnt.reorderStates.Add(int64(rec.RStates))
	cnt.reorderBroken.Add(int64(rec.RBroken))
	cnt.replayedWrites.Add(rec.Replayed)
	for _, f := range rec.Faults {
		k, err := blockdev.ParseFaultKind(f.Kind)
		if err != nil {
			continue // a future kind this build does not know; leave it out
		}
		cnt.faultStates[k].Add(int64(f.States))
		cnt.faultBroken[k].Add(int64(f.Broken))
		if noPrune {
			cnt.faultChecked[k].Add(int64(f.Checked) + int64(f.Pruned) + int64(f.ClassSkip))
		} else {
			cnt.faultChecked[k].Add(int64(f.Checked))
			cnt.faultPruned[k].Add(int64(f.Pruned))
			cnt.faultClassSkip[k].Add(int64(f.ClassSkip))
		}
	}
	if rec.KV != nil {
		cnt.addKV(kvoracle.Counts{
			Legal:        rec.KV.Legal,
			LostAck:      rec.KV.LostAck,
			Resurrected:  rec.KV.Resurrected,
			Unreplayable: rec.KV.Unreplayable,
		})
	}
	if noPrune {
		// The shard may have been written with pruning on (prune mode is
		// excluded from the config fingerprint on purpose). A no-prune run
		// must keep its StatesChecked == StatesTotal invariant, so recorded
		// prune-skips — post-construction and enumeration-time alike — count
		// as checked here: their verdicts were established, just via the
		// cache.
		cnt.statesChecked.Add(int64(rec.Checked) + int64(rec.Pruned))
		cnt.reorderChecked.Add(int64(rec.RChecked) + int64(rec.RPruned) + int64(rec.RClassSkip))
	} else {
		cnt.statesChecked.Add(int64(rec.Checked))
		cnt.statesPruned.Add(int64(rec.Pruned))
		cnt.reorderChecked.Add(int64(rec.RChecked))
		cnt.reorderPruned.Add(int64(rec.RPruned))
		cnt.reorderClassSkip.Add(int64(rec.RClassSkip))
	}
	if rec.Errored || rec.Verdict == corpus.VerdictError {
		cnt.errs.Add(1)
	} else if rec.States > 0 {
		cnt.tested.Add(1)
	}
	if rec.Verdict == corpus.VerdictBuggy {
		cnt.failed.Add(1)
	}
	for _, rr := range rec.Reports {
		findings := make([]crashmonkey.Finding, 0, len(rr.Findings))
		for _, f := range rr.Findings {
			findings = append(findings, crashmonkey.Finding{
				Consequence: bugs.Consequence(f.Consequence),
				Path:        f.Path,
				Detail:      f.Detail,
			})
		}
		skeleton := rr.Skeleton
		if skeleton == "" {
			skeleton = rec.Skeleton
		}
		emit(&report.Report{
			FSName:      fsName,
			WorkloadID:  rec.ID,
			Skeleton:    skeleton,
			Consequence: bugs.Consequence(rr.Primary),
			Findings:    findings,
			Workload:    rec.Workload,
		})
	}
}

// foldRecord replays one recorded workload verdict into the run (resume).
func (r *fsRun) foldRecord(rec *corpus.WorkloadRecord) {
	r.cnt.resumed.Add(1)
	foldRecord(rec, r.cfg.FS.Name(), r.cfg.NoPrune, &r.cnt, r.emit)
}

// openCorpus opens (or resumes) the run's corpus shard.
func (r *fsRun) openCorpus() error {
	cfg := &r.cfg
	if cfg.CorpusDir == "" {
		return nil
	}
	label := cfg.ProfileLabel
	if label == "" {
		label = "campaign"
	}
	// The key hashes the FULL config fingerprint (not just the bounds), so
	// differently-configured campaigns never share — or truncate — each
	// other's shard file; a residue class appends its identity as a
	// readable suffix, so different shards of one campaign are separate
	// files too. Unsharded campaigns keep the exact pre-sharding key —
	// corpora written before the shard feature stay resumable. The Meta
	// check on resume still guards against hash collisions and hand-moved
	// files.
	fph := fnv.New64a()
	fph.Write([]byte(cfg.configFingerprint()))
	key := fmt.Sprintf("%s__%s__%016x", cfg.FS.Name(), label, fph.Sum64())
	if n := cfg.numShards(); n > 0 {
		key = fmt.Sprintf("%s__s%dof%d", key, cfg.Shard, n)
	}
	sample := cfg.SampleEvery
	if sample <= 1 {
		sample = 0
	}
	meta := corpus.Meta{
		FS:        cfg.FS.Name(),
		Profile:   label,
		Bounds:    cfg.configFingerprint(),
		Shard:     cfg.Shard,
		NumShards: cfg.numShards(),
		Sample:    sample,
	}
	var err error
	if cfg.Resume {
		r.shard, r.done, err = corpus.Resume(cfg.CorpusDir, key, meta)
	} else {
		r.shard, err = corpus.Create(cfg.CorpusDir, key, meta)
	}
	if err != nil {
		return err
	}
	if cfg.CheckpointEvery > 0 {
		r.shard.FlushEvery = cfg.CheckpointEvery
	}
	r.stats.CorpusPath = r.shard.Path()
	if testShardHook != nil {
		testShardHook(r.shard)
	}
	return nil
}

// generate enumerates the run's workload space, folding resumed records and
// feeding untested workloads to the shared pool. When the campaign is
// sharded, the ACE generator's residue-class partition restricts the stream
// to this shard's workloads while keeping global sequence numbers (and the
// full-space Generated count) intact. Returns the generation error, if any.
func (r *fsRun) generate(jobs chan<- fsJob) error {
	sample := r.cfg.SampleEvery
	if sample <= 0 {
		sample = 1
	}
	genStart := time.Now()
	shard, nShards := int64(r.cfg.Shard), int64(r.cfg.numShards())
	// decide applies the per-sequence campaign filters shared by both
	// workload families: test=false skips the workload (sampled out, wrong
	// shard, already folded from the corpus), stop=false halts enumeration.
	decide := func(seq int64) (test, stop bool) {
		if r.cfg.MaxWorkloads > 0 && seq > r.cfg.MaxWorkloads {
			return false, true
		}
		// A graceful interrupt stops feeding; in-flight jobs drain and are
		// recorded, and finish() skips the completion marker.
		if r.cfg.interrupted() {
			return false, true
		}
		// A failed corpus write fails the whole campaign; stop feeding it
		// instead of testing for hours and then discarding the results.
		if r.corpusFailed.Load() {
			return false, true
		}
		if seq%sample != 0 {
			return false, false
		}
		// Sampled + sharded: partition the sampled subsequence (workload
		// sample·m → shard m mod n), not raw sequence numbers — raw
		// residues starve when gcd(sample, n) > 1 (see Config.Shard).
		if sample > 1 && nShards > 0 && (seq/sample)%nShards != shard {
			return false, false
		}
		if rec, ok := r.done[seq]; ok {
			r.foldRecord(rec)
			return false, false
		}
		return true, false
	}
	var generated int64
	var genErr error
	if r.cfg.KV != nil {
		gen := kvace.New(*r.cfg.KV)
		if sample == 1 {
			// Unsampled: the kvace-level partition filters during enumeration.
			gen.Shard, gen.NumShards = r.cfg.Shard, r.cfg.numShards()
		}
		generated, genErr = gen.GenerateSeq(func(seq int64, w *kvace.Workload) bool {
			test, stop := decide(seq)
			if test {
				jobs <- fsJob{run: r, kw: w, seq: seq}
			}
			return !stop
		})
	} else {
		gen := ace.New(r.cfg.Bounds)
		if sample == 1 {
			// Unsampled: the ace-level partition filters during enumeration.
			gen.Shard, gen.NumShards = r.cfg.Shard, r.cfg.numShards()
		}
		generated, genErr = gen.GenerateSeq(func(seq int64, w *workload.Workload) bool {
			test, stop := decide(seq)
			if test {
				// Workloads are mutated downstream only via their own
				// structures; each emitted workload is freshly built, so
				// hand it off directly.
				jobs <- fsJob{run: r, w: w, seq: seq}
			}
			return !stop
		})
	}
	r.stats.Generated = generated
	r.stats.GenDur = time.Since(genStart)
	return genErr
}

// finish folds the counters into the run's Stats and groups its reports.
// Called after the worker pool has drained. Errors are returned unwrapped
// (the corpus package already prefixes them); RunMatrix adds the one
// campaign-and-FS-naming wrap.
func (r *fsRun) finish(start time.Time, interrupted bool) error {
	if r.corpusErr != nil {
		return r.corpusErr
	}
	stats, cnt := r.stats, &r.cnt
	stats.Elapsed = time.Since(start)
	// A completed campaign marks the shard mergeable; an interrupted one
	// deliberately does not — its enumeration stopped early, so the marker
	// would lie — but still closes (checkpointing) so every recorded
	// workload is durable and the shard resumes exactly here. Close
	// explicitly so a failed final checkpoint surfaces instead of vanishing
	// in the deferred (idempotent) Close.
	if r.shard != nil {
		if !interrupted {
			if err := r.shard.AppendDone(corpus.DoneRecord{
				Generated: stats.Generated,
				ElapsedNS: int64(stats.Elapsed),
			}); err != nil {
				return err
			}
		}
		if err := r.shard.Close(); err != nil {
			return err
		}
	}
	cnt.into(stats)
	stats.Shard, stats.NumShards = r.cfg.Shard, r.cfg.numShards()
	stats.ReorderBound = max(r.cfg.Reorder, 0)
	if r.cfg.Faults.Enabled() {
		m := r.cfg.Faults.Canonical()
		stats.FaultSector = m.SectorSize
		// One row per configured kind, in canonical order, even when the
		// sweep found no workloads to run against.
		rows := make([]FaultKindStats, 0, len(m.Kinds))
		for _, k := range m.Kinds {
			row := FaultKindStats{Kind: k.String()}
			for _, fs := range stats.FaultKinds {
				if fs.Kind == row.Kind {
					row = fs
					break
				}
			}
			rows = append(rows, row)
		}
		stats.FaultKinds = rows
	}
	stats.BlocksRead = r.meter.BlocksRead.Load()
	stats.BytesAllocated = r.meter.BytesAllocated.Load()
	if r.cache != nil {
		cs := r.cache.Stats()
		stats.DistinctStates = cs.DiskStates
		stats.PruneCap = cs.Cap
		stats.DiskEvictions = cs.DiskEvictions
		stats.TreeEvictions = cs.TreeEvictions
	}
	stats.ProfileDur = time.Duration(cnt.profNS.Load())
	stats.ReplayDur = time.Duration(cnt.replayNS.Load())
	stats.CheckDur = time.Duration(cnt.checkNS.Load())
	stats.TotalDirty = cnt.dirtyTot.Load()
	stats.DirtySample = cnt.dirtyN.Load()
	stats.MaxDirty = cnt.dirtyMax.Load()

	stats.Groups = report.GroupReports(r.reports)
	db := r.cfg.KnownDB
	if r.cfg.KnownDBFor != nil {
		db = r.cfg.KnownDBFor(r.cfg.FS.Name())
	}
	if db != nil {
		stats.FreshGroups, stats.KnownGroups = db.Split(stats.Groups)
	} else {
		stats.FreshGroups = stats.Groups
	}
	return nil
}

// fsJob is one workload bound for one matrix row. Exactly one of w (the
// ACE file-system family) and kw (the bounded KV application family) is set.
type fsJob struct {
	run *fsRun
	w   *workload.Workload
	kw  *kvace.Workload
	seq int64
}

// Run executes a single-file-system campaign. On a graceful interrupt the
// partial statistics are returned alongside ErrInterrupted.
func Run(cfg Config) (*Stats, error) {
	m, err := RunMatrix(cfg, nil)
	if err != nil {
		if errors.Is(err, ErrInterrupted) && m != nil && len(m.PerFS) > 0 {
			return m.PerFS[0], err
		}
		return nil, err
	}
	return m.PerFS[0], nil
}

// RunMatrix fans one campaign configuration out across several file
// systems at once — the in-process analogue of giving each file system its
// own slice of the paper's VM cluster (§6.1). All rows share one worker
// pool, so a fast row's idle capacity drains into the slower ones; each row
// keeps its own prune cache, corpus shard, statistics, and bug groups. A
// nil or empty fss runs just cfg.FS.
func RunMatrix(cfg Config, fss []filesys.FileSystem) (*Matrix, error) {
	if cfg.Resume && cfg.CorpusDir == "" {
		return nil, fmt.Errorf("campaign: Resume requires CorpusDir")
	}
	if cfg.NumShards < 0 {
		return nil, fmt.Errorf("campaign: negative shard count %d", cfg.NumShards)
	}
	if cfg.numShards() > 0 {
		if cfg.Shard < 0 || cfg.Shard >= cfg.NumShards {
			return nil, fmt.Errorf("campaign: shard %d outside residue range 0..%d",
				cfg.Shard, cfg.NumShards-1)
		}
	} else if cfg.Shard != 0 {
		return nil, fmt.Errorf("campaign: Shard %d set without NumShards", cfg.Shard)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if cfg.Faults.Enabled() {
		// Canonical kind order everywhere downstream: sweeps, counters,
		// corpus records, and the config fingerprint all agree.
		cfg.Faults = cfg.Faults.Canonical()
	}
	if len(fss) == 0 {
		if cfg.FS == nil {
			return nil, fmt.Errorf("campaign: no file system configured")
		}
		fss = []filesys.FileSystem{cfg.FS}
	}
	seen := map[string]bool{}
	for _, fs := range fss {
		if seen[fs.Name()] {
			return nil, fmt.Errorf("campaign: duplicate file system %q in matrix", fs.Name())
		}
		seen[fs.Name()] = true
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()

	runs := make([]*fsRun, 0, len(fss))
	for _, fs := range fss {
		r := &fsRun{cfg: cfg, stats: &Stats{FSName: fs.Name()}}
		r.cfg.FS = fs
		if !cfg.NoPrune {
			cap := cfg.PruneCap
			switch {
			case cap == 0:
				cap = crashmonkey.DefaultPruneCap
			case cap < 0:
				cap = 0 // unbounded
			}
			r.cache = crashmonkey.NewPruneCacheCap(cap)
		}
		if err := r.openCorpus(); err != nil {
			// Release shards already opened for earlier rows.
			for _, prev := range runs {
				if prev.shard != nil {
					prev.shard.Close()
				}
			}
			return nil, fmt.Errorf("campaign: %s: %w", fs.Name(), err)
		}
		runs = append(runs, r)
	}
	defer func() {
		for _, r := range runs {
			if r.shard != nil {
				r.shard.Close()
			}
		}
	}()

	// Live progress: one ticker goroutine sums the atomic counters across
	// rows and hands cumulative snapshots to the callback. Stopped (and
	// waited for) before the final snapshot, so OnProgress is never called
	// concurrently with itself.
	var progressDone chan struct{}
	snapshot := func() Progress {
		p := Progress{Elapsed: time.Since(start)}
		for _, r := range runs {
			p.Workloads += r.cnt.tested.Load() + r.cnt.errs.Load()
			p.States += r.cnt.statesTotal.Load() + r.cnt.reorderStates.Load()
			for k := 0; k < blockdev.NumFaultKinds; k++ {
				p.FaultStates += r.cnt.faultStates[k].Load()
			}
			p.ReplayedWrites += r.cnt.replayedWrites.Load()
		}
		p.States += p.FaultStates
		return p
	}
	var progressStop chan struct{}
	if cfg.OnProgress != nil {
		every := cfg.ProgressEvery
		if every <= 0 {
			every = DefaultProgressEvery
		}
		progressStop = make(chan struct{})
		progressDone = make(chan struct{})
		go func() {
			defer close(progressDone)
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					cfg.OnProgress(snapshot())
				case <-progressStop:
					return
				}
			}
		}()
	}

	jobs := make(chan fsJob, 4*workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			monkeys := make(map[*fsRun]*crashmonkey.Monkey, len(runs))
			for j := range jobs {
				mk := monkeys[j.run]
				if mk == nil {
					mk = &crashmonkey.Monkey{
						FS:              j.run.cfg.FS,
						SkipWriteChecks: j.run.cfg.SkipWriteChecks,
						Prune:           j.run.cache,
						ScratchStates:   j.run.cfg.ScratchStates,
						NoClassPrune:    j.run.cfg.NoClassPrune,
						Meter:           &j.run.meter,
					}
					monkeys[j.run] = mk
				}
				j.run.runWorkload(mk, j)
			}
		}()
	}

	// One generator per row: ACE enumeration is cheap relative to testing,
	// and per-row generation keeps corpus sequence numbering identical to a
	// single-FS campaign, so shards stay mutually resumable.
	genErrs := make([]error, len(runs))
	var genWG sync.WaitGroup
	for i, r := range runs {
		genWG.Add(1)
		go func(i int, r *fsRun) {
			defer genWG.Done()
			genErrs[i] = r.generate(jobs)
		}(i, r)
	}
	genWG.Wait()
	close(jobs)
	wg.Wait()
	if cfg.OnProgress != nil {
		close(progressStop)
		<-progressDone
		cfg.OnProgress(snapshot())
	}

	for i, r := range runs {
		if genErrs[i] != nil {
			return nil, fmt.Errorf("campaign: %s: generation: %w", r.cfg.FS.Name(), genErrs[i])
		}
	}
	// Sample the interrupt once so every row agrees on whether this run may
	// mark its shard complete (an interrupt landing mid-finish must not
	// leave some rows mergeable and others not).
	interrupted := cfg.interrupted()
	matrix := &Matrix{}
	for _, r := range runs {
		if err := r.finish(start, interrupted); err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", r.cfg.FS.Name(), err)
		}
		matrix.PerFS = append(matrix.PerFS, r.stats)
	}
	matrix.Elapsed = time.Since(start)
	if interrupted {
		return matrix, ErrInterrupted
	}
	return matrix, nil
}

// subject is one profiled workload of either family as the campaign driver
// sees it: the family's checkpoint test, crash-state sweeps, and report
// construction behind one interface, so runWorkload folds counters, corpus
// records, and reports identically for both.
type subject interface {
	checkpoints() int
	// test crash-tests persistence point cp.
	test(cp int) (cpOutcome, error)
	// reorder sweeps the bounded-reordering states at bound k, returning
	// the KV oracle classes alongside (zero for the fs family).
	reorder(k int) (*crashmonkey.ReorderReport, kvoracle.Counts, error)
	// faults sweeps the fault-injection states of every kind in m.
	faults(m blockdev.FaultModel) ([]crashmonkey.FaultKindReport, kvoracle.Counts, error)
	release()
}

// cpOutcome is one checkpoint verdict as the driver folds it.
type cpOutcome struct {
	prunedBy            string // "" when the state was fully checked
	replayed            int64
	replayDur, checkDur time.Duration
	// classified reports that the KV oracle rendered class: FS-broken
	// states render no application verdict (the lower layer already broke
	// its contract; that surfaces as an Unmountable finding instead).
	classified bool
	class      kvoracle.Class
	// rep is the bug report of a buggy state, nil when it is consistent.
	rep *report.Report
}

// fsSubject is a profiled ACE workload checked by the file-level oracle.
type fsSubject struct {
	mk *crashmonkey.Monkey
	p  *crashmonkey.Profile
}

func (s fsSubject) checkpoints() int { return s.p.Checkpoints() }
func (s fsSubject) release()         { s.p.Release() }

func (s fsSubject) test(cp int) (cpOutcome, error) {
	res, err := s.mk.TestCheckpoint(s.p, cp)
	if err != nil {
		return cpOutcome{}, err
	}
	out := cpOutcome{prunedBy: res.PrunedBy, replayed: res.ReplayedWrites,
		replayDur: res.ReplayDur, checkDur: res.CheckDur}
	if res.Buggy() {
		out.rep = report.FromResult(res)
	}
	return out, nil
}

func (s fsSubject) reorder(k int) (*crashmonkey.ReorderReport, kvoracle.Counts, error) {
	rr, err := s.mk.ExploreReorder(s.p, k)
	return rr, kvoracle.Counts{}, err
}

func (s fsSubject) faults(m blockdev.FaultModel) ([]crashmonkey.FaultKindReport, kvoracle.Counts, error) {
	fr, err := s.mk.ExploreFaults(s.p, m)
	if err != nil {
		return nil, kvoracle.Counts{}, err
	}
	return fr.Kinds, kvoracle.Counts{}, nil
}

// kvSubject is a profiled KV workload checked by the expected-state oracle.
type kvSubject struct {
	mk *crashmonkey.Monkey
	kp *crashmonkey.KVProfile
}

func (s kvSubject) checkpoints() int { return s.kp.Checkpoints() }
func (s kvSubject) release()         { s.kp.Release() }

func (s kvSubject) test(cp int) (cpOutcome, error) {
	res, err := s.mk.TestKVCheckpoint(s.kp, cp)
	if err != nil {
		return cpOutcome{}, err
	}
	out := cpOutcome{prunedBy: res.PrunedBy, replayed: res.ReplayedWrites,
		replayDur: res.ReplayDur, checkDur: res.CheckDur,
		classified: res.Mountable || res.FsckRepaired, class: res.Class}
	if res.Buggy() {
		out.rep = &report.Report{
			FSName:      res.FSName,
			WorkloadID:  res.Workload.ID,
			Skeleton:    res.Workload.Skeleton(),
			Consequence: res.Primary().Consequence,
			Findings:    res.Findings,
			Workload:    res.Workload.String(),
		}
	}
	return out, nil
}

func (s kvSubject) reorder(k int) (*crashmonkey.ReorderReport, kvoracle.Counts, error) {
	rr, err := s.mk.ExploreKVReorder(s.kp, k)
	if err != nil {
		return nil, kvoracle.Counts{}, err
	}
	return &rr.ReorderReport, rr.Classes, nil
}

func (s kvSubject) faults(m blockdev.FaultModel) ([]crashmonkey.FaultKindReport, kvoracle.Counts, error) {
	fr, err := s.mk.ExploreKVFaults(s.kp, m)
	if err != nil {
		return nil, kvoracle.Counts{}, err
	}
	kinds := make([]crashmonkey.FaultKindReport, len(fr.Kinds))
	var classes kvoracle.Counts
	for i, kr := range fr.Kinds {
		kinds[i] = kr.FaultKindReport
		classes.Merge(kr.Classes)
	}
	return kinds, classes, nil
}

// profile records the job's workload on mk, returning it as a subject with
// its profiling wall time and COW overlay footprint.
func (j fsJob) profile(mk *crashmonkey.Monkey) (subject, time.Duration, int64, error) {
	if j.kw != nil {
		kp, err := mk.ProfileKV(j.kw)
		if err != nil {
			return nil, 0, 0, err
		}
		return kvSubject{mk, kp}, kp.ProfileDur, kp.DirtyBytes, nil
	}
	p, err := mk.ProfileWorkload(j.w)
	if err != nil {
		return nil, 0, 0, err
	}
	return fsSubject{mk, p}, p.ProfileDur, p.DirtyBytes, nil
}

// id returns the job's workload ID.
func (j fsJob) id() string {
	if j.kw != nil {
		return j.kw.ID
	}
	return j.w.ID
}

// text returns the skeleton and rendering recorded for a buggy workload.
func (j fsJob) text() (skeleton, workload string) {
	if j.kw != nil {
		return j.kw.Skeleton(), j.kw.String()
	}
	return j.w.Skeleton(), j.w.String()
}

// runWorkload profiles one workload of either family, crash-tests its
// persistence points, and (when configured) sweeps its reorder and fault
// crash states, reporting buggy states and recording the outcome to the
// corpus. The sweeps are skipped for workloads that already errored, so
// every recorded total is a deterministic function of the workload (what
// resume compares against) — except the checked/pruned/class-skipped
// split, which depends on shared prune-cache state and worker
// interleaving, so only its sum is stable. KV oracle classes never depend
// on cache state, so they are recorded and resume/merge fold them exactly.
func (r *fsRun) runWorkload(mk *crashmonkey.Monkey, j fsJob) {
	cnt := &r.cnt
	rec := &corpus.WorkloadRecord{Seq: j.seq, ID: j.id(), Verdict: corpus.VerdictClean}
	s, profDur, dirty, err := j.profile(mk)
	if err != nil {
		cnt.errs.Add(1)
		rec.Verdict = corpus.VerdictError
		rec.Errored = true
		r.appendRecord(rec)
		return
	}
	// Hand the profile's pooled device memory (base image, overlays, the
	// rolling cursor) back once every sweep over it is done.
	defer s.release()
	last := s.checkpoints()
	if last == 0 {
		r.appendRecord(rec)
		return
	}
	cnt.profNS.Add(int64(profDur))
	cnt.dirtyTot.Add(dirty)
	cnt.dirtyN.Add(1)
	for {
		cur := cnt.dirtyMax.Load()
		if dirty <= cur || cnt.dirtyMax.CompareAndSwap(cur, dirty) {
			break
		}
	}

	var classes kvoracle.Counts
	first := 1
	if r.cfg.FinalOnly {
		first = last
	}
	for cp := first; cp <= last; cp++ {
		out, err := s.test(cp)
		if err != nil {
			// Earlier checkpoints may already have found bugs; keep those
			// reports and verdicts, just stop testing this workload.
			cnt.errs.Add(1)
			rec.Errored = true
			break
		}
		rec.States++
		cnt.statesTotal.Add(1)
		switch out.prunedBy {
		case "":
			rec.Checked++
			cnt.statesChecked.Add(1)
		case "disk":
			rec.Pruned++
			cnt.statesPruned.Add(1)
			cnt.prunedDisk.Add(1)
		default:
			rec.Pruned++
			cnt.statesPruned.Add(1)
			cnt.prunedTree.Add(1)
		}
		rec.Replayed += out.replayed
		cnt.replayedWrites.Add(out.replayed)
		cnt.replayNS.Add(int64(out.replayDur))
		cnt.checkNS.Add(int64(out.checkDur))
		if out.classified {
			classes.Add(out.class)
		}
		if out.rep != nil {
			rec.Verdict = corpus.VerdictBuggy
			r.emit(out.rep)
			cr := corpus.ReportRecord{
				Checkpoint: cp,
				Primary:    uint8(out.rep.Consequence),
				Skeleton:   out.rep.Skeleton,
			}
			for _, f := range out.rep.Findings {
				cr.Findings = append(cr.Findings, corpus.Finding{
					Consequence: uint8(f.Consequence),
					Path:        f.Path,
					Detail:      f.Detail,
				})
			}
			rec.Reports = append(rec.Reports, cr)
		}
	}
	if r.cfg.Reorder > 0 && !rec.Errored {
		rr, c, err := s.reorder(r.cfg.Reorder)
		if err != nil {
			cnt.errs.Add(1)
			rec.Errored = true
		} else {
			rec.RStates = rr.States
			rec.RChecked = rr.Checked
			rec.RPruned = rr.Pruned
			rec.RClassSkip = rr.ClassSkipped
			rec.RBroken = len(rr.Broken)
			rec.Replayed += rr.ReplayedWrites
			cnt.reorderStates.Add(int64(rr.States))
			cnt.reorderChecked.Add(int64(rr.Checked))
			cnt.reorderPruned.Add(int64(rr.Pruned))
			cnt.reorderClassSkip.Add(int64(rr.ClassSkipped))
			cnt.reorderBroken.Add(int64(len(rr.Broken)))
			cnt.replayedWrites.Add(rr.ReplayedWrites)
			classes.Merge(c)
		}
	}
	if r.cfg.Faults.Enabled() && !rec.Errored {
		kinds, c, err := s.faults(r.cfg.Faults)
		if err != nil {
			cnt.errs.Add(1)
			rec.Errored = true
		} else {
			for _, kr := range kinds {
				rec.Faults = append(rec.Faults, corpus.FaultKindCounts{
					Kind:      kr.Kind.String(),
					States:    kr.States,
					Checked:   kr.Checked,
					Pruned:    kr.Pruned,
					ClassSkip: kr.ClassSkipped,
					Broken:    len(kr.Broken),
				})
				k := int(kr.Kind)
				cnt.faultStates[k].Add(int64(kr.States))
				cnt.faultChecked[k].Add(int64(kr.Checked))
				cnt.faultPruned[k].Add(int64(kr.Pruned))
				cnt.faultClassSkip[k].Add(int64(kr.ClassSkipped))
				cnt.faultBroken[k].Add(int64(len(kr.Broken)))
				rec.Replayed += kr.ReplayedWrites
				cnt.replayedWrites.Add(kr.ReplayedWrites)
			}
			classes.Merge(c)
		}
	}
	cnt.addKV(classes)
	if classes.Total() > 0 {
		rec.KV = &corpus.KVCounts{
			Legal:        classes.Legal,
			LostAck:      classes.LostAck,
			Resurrected:  classes.Resurrected,
			Unreplayable: classes.Unreplayable,
		}
	}
	if rec.Verdict == corpus.VerdictBuggy {
		cnt.failed.Add(1)
		rec.Skeleton, rec.Workload = j.text()
	} else if rec.Errored {
		rec.Verdict = corpus.VerdictError
	}
	if !rec.Errored {
		cnt.tested.Add(1)
	}
	r.appendRecord(rec)
}

// headline renders the first Summary line: the shard-stable campaign
// counters. MergeStats reuses it verbatim, which is what makes a merged
// summary byte-identical to the unsharded run's on this line.
func (s *Stats) headline() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign on %s: %d workloads generated, %d tested, %d failing, %d groups",
		s.FSName, s.Generated, s.Tested, s.Failed, len(s.Groups))
	if len(s.KnownGroups) > 0 {
		fmt.Fprintf(&sb, " (%d known, %d new)", len(s.KnownGroups), len(s.FreshGroups))
	}
	return sb.String()
}

// Summary renders the campaign outcome in a Table 4/Table 5 flavoured form.
func (s *Stats) Summary() string {
	var sb strings.Builder
	sb.WriteString(s.headline())
	if s.NumShards > 1 {
		fmt.Fprintf(&sb, "\nshard %d/%d: this run tested only its residue class of the sweep (merge all %d with b3 -merge)",
			s.Shard, s.NumShards, s.NumShards)
	}
	fmt.Fprintf(&sb, "\ncrash states: %d constructed, %d checked, %d pruned",
		s.StatesTotal, s.StatesChecked, s.StatesPruned)
	if s.StatesPruned > 0 {
		if s.PrunedDisk+s.PrunedTree > 0 {
			// Tier split is only known for states pruned live this run
			// (resumed records carry the totals, not the split).
			fmt.Fprintf(&sb, " (%d identical-disk, %d identical-tree; %.0f%% of oracle checks skipped)",
				s.PrunedDisk, s.PrunedTree, 100*s.PruneRate())
		} else {
			fmt.Fprintf(&sb, " (%.0f%% of oracle checks skipped)", 100*s.PruneRate())
		}
	}
	if s.ReplayedWrites > 0 {
		fmt.Fprintf(&sb, "; %d writes replayed (%.1f/state)",
			s.ReplayedWrites, s.ReplayPerState())
	}
	if s.PruneCap > 0 {
		fmt.Fprintf(&sb, "\nprune cache: %d distinct states held (cap %d/tier)",
			s.DistinctStates, s.PruneCap)
		if ev := s.DiskEvictions + s.TreeEvictions; ev > 0 {
			fmt.Fprintf(&sb, ", %d evicted (%d disk, %d tree)",
				ev, s.DiskEvictions, s.TreeEvictions)
		}
	}
	if s.ReorderBound > 0 {
		fmt.Fprintf(&sb, "\nreorder (k=%d): %d states enumerated, %d checked, %d pruned, %d broken",
			s.ReorderBound, s.ReorderStates, s.ReorderChecked, s.ReorderPruned, s.ReorderBroken)
		if s.ReorderClassSkipped > 0 {
			fmt.Fprintf(&sb, "; never constructed: %d class-skipped", s.ReorderClassSkipped)
		}
	}
	if len(s.FaultKinds) > 0 {
		fmt.Fprintf(&sb, "\nfaults (sector=%d):", s.FaultSector)
		for i, fk := range s.FaultKinds {
			if i > 0 {
				sb.WriteByte(';')
			}
			fmt.Fprintf(&sb, " %s %d states, %d checked, %d pruned, %d broken",
				fk.Kind, fk.States, fk.Checked, fk.Pruned, fk.Broken)
			if fk.ClassSkipped > 0 {
				fmt.Fprintf(&sb, " (%d class-skipped)", fk.ClassSkipped)
			}
		}
	}
	if s.KVClasses.Total() > 0 {
		fmt.Fprintf(&sb, "\nkv oracle: %d states classified: %d legal, %d lost-ack, %d resurrected, %d unreplayable",
			s.KVClasses.Total(), s.KVClasses.Legal, s.KVClasses.LostAck,
			s.KVClasses.Resurrected, s.KVClasses.Unreplayable)
	}
	if s.Resumed > 0 {
		fmt.Fprintf(&sb, "\nresumed: %d workloads folded in from %s", s.Resumed, s.CorpusPath)
	}
	fmt.Fprintf(&sb, "\nelapsed %.2fs (gen %.0f/s, test %.0f/s)",
		s.Elapsed.Seconds(), s.GenRate(), s.TestRate())
	// Timing and memory figures exist only for live-profiled workloads
	// (DirtySample); resumed records fold verdicts, not durations.
	if live := s.DirtySample; live > 0 {
		fmt.Fprintf(&sb, "\nper live workload: profile %s, crash-state %s, check %s; avg dirty %d KiB",
			time.Duration(int64(s.ProfileDur)/live),
			time.Duration(int64(s.ReplayDur)/live),
			time.Duration(int64(s.CheckDur)/live),
			s.AvgDirtyBytes()/1024)
	}
	sb.WriteByte('\n')
	for _, g := range s.FreshGroups {
		sb.WriteByte('\n')
		sb.WriteString(g.Render())
	}
	return sb.String()
}

// Matrix is the outcome of a multi-file-system campaign: one Stats per
// file system, in the order the file systems were given.
type Matrix struct {
	PerFS   []*Stats
	Elapsed time.Duration
}

// ByFS returns the row for one file system (nil if absent).
func (m *Matrix) ByFS(name string) *Stats {
	for _, s := range m.PerFS {
		if s.FSName == name {
			return s
		}
	}
	return nil
}

// Table renders the merged cross-FS report table: one row per file system
// with the headline campaign counters.
func (m *Matrix) Table() string {
	t := report.NewTable("file system", "generated", "tested", "failing",
		"groups", "new", "states", "pruned", "evicted", "rw/state", "reorder", "r-skip", "r-broken",
		"torn", "corrupt", "misdir", "kv")
	for _, s := range m.PerFS {
		t.AddRow(
			s.FSName,
			fmt.Sprintf("%d", s.Generated),
			fmt.Sprintf("%d", s.Tested),
			fmt.Sprintf("%d", s.Failed),
			fmt.Sprintf("%d", len(s.Groups)),
			fmt.Sprintf("%d", len(s.FreshGroups)),
			fmt.Sprintf("%d", s.StatesTotal),
			fmt.Sprintf("%.0f%%", 100*s.PruneRate()),
			fmt.Sprintf("%d", s.DiskEvictions+s.TreeEvictions),
			fmt.Sprintf("%.1f", s.ReplayPerState()),
			fmt.Sprintf("%d", s.ReorderStates),
			fmt.Sprintf("%d", s.ReorderClassSkipped),
			fmt.Sprintf("%d", s.ReorderBroken),
			s.faultCell(blockdev.FaultTorn.String()),
			s.faultCell(blockdev.FaultCorrupt.String()),
			s.faultCell(blockdev.FaultMisdirect.String()),
			s.kvCell(),
		)
	}
	return t.Render()
}

// kvCell renders the KV-oracle column: classified/violations for an
// application-workload campaign, "-" for a file-level one.
func (s *Stats) kvCell() string {
	if s.KVClasses.Total() == 0 {
		return "-"
	}
	return fmt.Sprintf("%d/%d", s.KVClasses.Total(), s.KVClasses.Violations())
}

// Summary renders the cross-FS table followed by each file system's fresh
// bug groups.
func (m *Matrix) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign matrix: %d file systems in %.2fs\n\n",
		len(m.PerFS), m.Elapsed.Seconds())
	sb.WriteString(m.Table())
	for _, s := range m.PerFS {
		for _, g := range s.FreshGroups {
			sb.WriteByte('\n')
			sb.WriteString(g.Render())
		}
	}
	return sb.String()
}

// KnownEntry seeds one known bug for the §5.3 database.
type KnownEntry struct {
	Skeleton    string
	Consequence bugs.Consequence
	BugID       string
}

// SeedKnownDB builds the §5.3 known-bug database: each known bug is keyed
// by the skeleton and consequence it produces.
func SeedKnownDB(entries []KnownEntry) *report.KnownDB {
	db := report.NewKnownDB()
	for _, e := range entries {
		db.Add(e.Skeleton, e.Consequence, e.BugID)
	}
	return db
}
