package crashmonkey

import (
	"math/rand"
	"testing"

	"b3/internal/bugs"
	"b3/internal/filesys"
	"b3/internal/fs/f2fsim"
	"b3/internal/fs/fscqsim"
	"b3/internal/fs/journalfs"
	"b3/internal/fs/logfs"
	"b3/internal/workload"
)

func mustParse(t testing.TB, id, text string) *workload.Workload {
	t.Helper()
	w, err := workload.Parse(id, text)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func run(t *testing.T, fs filesys.FileSystem, text string) *Result {
	t.Helper()
	mk := &Monkey{FS: fs}
	res, err := mk.Run(mustParse(t, "test", text))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func logfsFixed() *logfs.FS { return logfs.New(logfs.Options{BugOverride: map[string]bool{}}) }

func logfsWith(ids ...string) *logfs.FS {
	over := map[string]bool{}
	for _, id := range ids {
		over[id] = true
	}
	return logfs.New(logfs.Options{BugOverride: over})
}

func hasConsequence(res *Result, c bugs.Consequence) bool {
	for _, f := range res.Findings {
		if f.Consequence == c {
			return true
		}
	}
	return false
}

func TestCleanWorkloadNoFindings(t *testing.T) {
	res := run(t, logfsFixed(), `
mkdir /A
creat /A/foo
write /A/foo 0 8192
fsync /A/foo
`)
	if res.Buggy() {
		t.Fatalf("fixed FS reported findings: %v", res.Findings)
	}
	if !res.Mountable {
		t.Fatal("crash state should mount")
	}
}

func TestUnpersistedChangesAreLegal(t *testing.T) {
	// Changes after the last persistence point may or may not survive; the
	// checker must accept either (here: nothing after sync was persisted).
	res := run(t, logfsFixed(), `
creat /foo
write /foo 0 4096
sync
creat /bar
write /foo 4096 4096
rename /foo /baz
sync
`)
	if res.Buggy() {
		t.Fatalf("unexpected findings: %v", res.Findings)
	}
}

func TestOversyncIsLegal(t *testing.T) {
	// fsync of one file on journalfs persists everything (global journal);
	// the checker must not flag the extra persistence.
	res := run(t, journalfs.New(journalfs.Options{BugOverride: map[string]bool{}}), `
mkdir /A
creat /A/foo
creat /A/bar
write /A/bar 0 4096
fsync /A/foo
`)
	if res.Buggy() {
		t.Fatalf("oversync flagged: %v", res.Findings)
	}
}

func TestFigure1DetectedAsUnmountable(t *testing.T) {
	text := `
mkdir /A
creat /A/foo
link /A/foo /A/bar
sync
unlink /A/bar
creat /A/bar
fsync /A/bar
`
	res := run(t, logfsWith("btrfs-link-unlink-replay-fail"), text)
	if res.Mountable {
		t.Fatal("bug active: crash state should be unmountable")
	}
	if !hasConsequence(res, bugs.Unmountable) {
		t.Fatalf("findings = %v", res.Findings)
	}
	if !res.FsckRun || !res.FsckRepaired {
		t.Fatalf("fsck should run and repair: run=%v repaired=%v", res.FsckRun, res.FsckRepaired)
	}

	clean := run(t, logfsFixed(), text)
	if clean.Buggy() {
		t.Fatalf("fixed FS flagged: %v", clean.Findings)
	}
}

func TestRenameAtomicityTargetLostDetected(t *testing.T) {
	text := `
mkdir /A
creat /A/bar
fsync /A/bar
mkdir /B
creat /B/bar
rename /B/bar /A/bar
creat /A/foo
fsync /A/foo
fsync /A
`
	res := run(t, logfsWith("btrfs-rename-atomicity-target-lost"), text)
	if !hasConsequence(res, bugs.RenameBothLost) && !hasConsequence(res, bugs.FileMissing) {
		t.Fatalf("findings = %v", res.Findings)
	}
	clean := run(t, logfsFixed(), text)
	if clean.Buggy() {
		t.Fatalf("fixed FS flagged: %v", clean.Findings)
	}
}

func TestBothLocationsDetected(t *testing.T) {
	text := `
mkdir /A
mkdir /B
creat /A/foo
mkdir /B/C
creat /B/baz
sync
link /A/foo /A/bar
rename /B/baz /A/baz
rename /B/C /A/C
fsync /A/foo
`
	res := run(t, logfsWith("btrfs-moved-entries-persist-in-both"), text)
	if !hasConsequence(res, bugs.FileInBothLocations) {
		t.Fatalf("findings = %v", res.Findings)
	}
	clean := run(t, logfsFixed(), text)
	if clean.Buggy() {
		t.Fatalf("fixed FS flagged: %v", clean.Findings)
	}
}

func TestWriteCheckCannotCreate(t *testing.T) {
	text := `
mkdir /A
creat /A/foo
fsync /A/foo
`
	res := run(t, logfsWith("btrfs-objectid-not-restored"), text)
	if !hasConsequence(res, bugs.CannotCreateFiles) {
		t.Fatalf("findings = %v", res.Findings)
	}
	clean := run(t, logfsFixed(), text)
	if clean.Buggy() {
		t.Fatalf("fixed FS flagged: %v", clean.Findings)
	}
}

func TestWriteCheckUnremovableDir(t *testing.T) {
	text := `
mkdir /A
creat /A/foo
creat /A/bar
sync
link /A/foo /A/foo_link
link /A/bar /A/bar_link
fsync /A/bar
`
	res := run(t, logfsWith("btrfs-replay-add-accounting"), text)
	if !hasConsequence(res, bugs.UnremovableDir) {
		t.Fatalf("findings = %v", res.Findings)
	}
	clean := run(t, logfsFixed(), text)
	if clean.Buggy() {
		t.Fatalf("fixed FS flagged: %v", clean.Findings)
	}
}

func TestBlocksLostDetected(t *testing.T) {
	text := `
creat /foo
write /foo 0 8192
fsync /foo
falloc -k /foo 8192 8192
fdatasync /foo
`
	fs := journalfs.New(journalfs.Options{BugOverride: map[string]bool{"ext4-fdatasync-falloc-keepsize": true}})
	res := run(t, fs, text)
	if !hasConsequence(res, bugs.BlocksLost) {
		t.Fatalf("findings = %v", res.Findings)
	}
	clean := run(t, journalfs.New(journalfs.Options{BugOverride: map[string]bool{}}), text)
	if clean.Buggy() {
		t.Fatalf("fixed FS flagged: %v", clean.Findings)
	}
}

func TestWrongSizeDetectedF2FS(t *testing.T) {
	text := `
creat /foo
write /foo 0 16384
fsync /foo
zero_range -k /foo 16384 4096
fsync /foo
`
	fs := f2fsim.New(f2fsim.Options{BugOverride: map[string]bool{"f2fs-zero-range-keep-size-size": true}})
	res := run(t, fs, text)
	if !hasConsequence(res, bugs.WrongSize) {
		t.Fatalf("findings = %v", res.Findings)
	}
	clean := run(t, f2fsim.New(f2fsim.Options{BugOverride: map[string]bool{}}), text)
	if clean.Buggy() {
		t.Fatalf("fixed FS flagged: %v", clean.Findings)
	}
}

func TestFSCQDataLossDetected(t *testing.T) {
	text := `
creat /foo
write /foo 0 4096
sync
write /foo 4096 4096
fdatasync /foo
`
	fs := fscqsim.New(fscqsim.Options{BugOverride: map[string]bool{"fscq-fdatasync-logged-writes": true}})
	res := run(t, fs, text)
	if !hasConsequence(res, bugs.WrongSize) && !hasConsequence(res, bugs.DataLoss) {
		t.Fatalf("findings = %v", res.Findings)
	}
	clean := run(t, fscqsim.New(fscqsim.Options{BugOverride: map[string]bool{}}), text)
	if clean.Buggy() {
		t.Fatalf("fixed FS flagged: %v", clean.Findings)
	}
}

func TestDirectWriteCheckpoint(t *testing.T) {
	text := `
creat /foo
sync
write /foo 16384 4096
dwrite /foo 0 4096
`
	fs := journalfs.New(journalfs.Options{BugOverride: map[string]bool{"ext4-dwrite-disksize": true}})
	res := run(t, fs, text)
	if !hasConsequence(res, bugs.WrongSize) {
		t.Fatalf("findings = %v", res.Findings)
	}
	clean := run(t, journalfs.New(journalfs.Options{BugOverride: map[string]bool{}}), text)
	if clean.Buggy() {
		t.Fatalf("fixed FS flagged: %v", clean.Findings)
	}
}

func TestRunAllTestsEveryCheckpoint(t *testing.T) {
	mk := &Monkey{FS: logfsFixed()}
	w := mustParse(t, "multi", `
creat /foo
fsync /foo
write /foo 0 4096
fsync /foo
sync
`)
	results, err := mk.RunAll(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	for _, r := range results {
		if r.Buggy() {
			t.Fatalf("checkpoint %d flagged: %v", r.Checkpoint, r.Findings)
		}
	}
}

func TestProfileStatistics(t *testing.T) {
	mk := &Monkey{FS: logfsFixed()}
	p, err := mk.ProfileWorkload(mustParse(t, "stats", `
creat /foo
write /foo 0 4096
fsync /foo
sync
`))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	if p.Checkpoints() != 2 {
		t.Fatalf("checkpoints = %d", p.Checkpoints())
	}
	if p.WritesRecorded() == 0 {
		t.Fatal("no writes recorded")
	}
	if p.DirtyBytes == 0 {
		t.Fatal("dirty bytes should be non-zero")
	}
	if n := p.WritesBetweenCheckpoints(); len(n) != 2 {
		t.Fatalf("writes-between-checkpoints = %v", n)
	}
}

// TestSoundnessRandomWorkloads is the harness soundness property (§4.4:
// "It is sound but incomplete"): on fully fixed file systems, no randomly
// generated valid workload may produce a finding.
func TestSoundnessRandomWorkloads(t *testing.T) {
	fses := []filesys.FileSystem{
		logfsFixed(),
		journalfs.New(journalfs.Options{BugOverride: map[string]bool{}}),
		f2fsim.New(f2fsim.Options{BugOverride: map[string]bool{}}),
		fscqsim.New(fscqsim.Options{BugOverride: map[string]bool{}}),
	}
	rng := rand.New(rand.NewSource(42))
	for _, fs := range fses {
		mk := &Monkey{FS: fs}
		for i := 0; i < 60; i++ {
			w := randomWorkload(rng, i)
			p, err := mk.ProfileWorkload(w)
			if err != nil || len(p.expectations) == 0 {
				continue // workload invalid for this FS state; skip
			}
			res, err := mk.TestCheckpoint(p, len(p.expectations))
			if err != nil {
				t.Fatalf("%s #%d: %v\n%s", fs.Name(), i, err, w)
			}
			if res.Buggy() {
				t.Fatalf("%s: false positive on workload #%d:\n%s\nfindings: %v",
					fs.Name(), i, w, res.Findings)
			}
		}
	}
}

// randomWorkload builds a random but *valid* workload over a small file set.
func randomWorkload(rng *rand.Rand, id int) *workload.Workload {
	type state struct {
		files map[string]bool
		dirs  map[string]bool
	}
	st := &state{files: map[string]bool{}, dirs: map[string]bool{"/": true, "/A": true, "/B": true}}
	w := &workload.Workload{ID: "rand"}
	add := func(op workload.Op) { w.Ops = append(w.Ops, op) }
	add(workload.Op{Kind: workload.OpMkdir, Path: "/A"})
	add(workload.Op{Kind: workload.OpMkdir, Path: "/B"})

	names := []string{"/foo", "/bar", "/A/foo", "/A/bar", "/B/foo", "/B/bar"}
	pick := func() string { return names[rng.Intn(len(names))] }
	existing := func() (string, bool) {
		var got []string
		for f := range st.files {
			got = append(got, f)
		}
		if len(got) == 0 {
			return "", false
		}
		return got[rng.Intn(len(got))], true
	}

	n := 3 + rng.Intn(5)
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0:
			p := pick()
			if !st.files[p] {
				add(workload.Op{Kind: workload.OpCreat, Path: p})
				st.files[p] = true
			}
		case 1:
			if p, ok := existing(); ok {
				add(workload.Op{Kind: workload.OpWrite, Path: p,
					Off: int64(rng.Intn(4)) * 4096, Len: 4096})
			}
		case 2:
			if p, ok := existing(); ok {
				q := pick()
				if !st.files[q] && p != q {
					add(workload.Op{Kind: workload.OpLink, Path: p, Path2: q})
					st.files[q] = true
				}
			}
		case 3:
			if p, ok := existing(); ok {
				add(workload.Op{Kind: workload.OpUnlink, Path: p})
				delete(st.files, p)
			}
		case 4:
			if p, ok := existing(); ok {
				q := pick()
				if p != q {
					add(workload.Op{Kind: workload.OpRename, Path: p, Path2: q})
					delete(st.files, p)
					st.files[q] = true
				}
			}
		case 5:
			if p, ok := existing(); ok {
				add(workload.Op{Kind: workload.OpFalloc, Path: p,
					Mode: filesys.FallocKeepSize, Off: int64(rng.Intn(4)) * 4096, Len: 4096})
			}
		case 6:
			if p, ok := existing(); ok {
				add(workload.Op{Kind: workload.OpFsync, Path: p})
			}
		case 7:
			add(workload.Op{Kind: workload.OpSync})
		}
	}
	// Final persistence point.
	if p, ok := existing(); ok && rng.Intn(2) == 0 {
		add(workload.Op{Kind: workload.OpFsync, Path: p})
	} else {
		add(workload.Op{Kind: workload.OpSync})
	}
	return w
}
