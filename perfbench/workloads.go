package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"b3"
	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/kvace"
	"b3/internal/report"
)

// spec is one benchmark workload: a campaign matrix over every backend.
// The seed picks one residue class (Campaign.Shard of NumShards) of the
// tested subsequence, so different seeds test disjoint slices of one space.
type spec struct {
	name    string
	profile b3.ProfileName
	sample  int64 // Campaign.SampleEvery (0 = every workload)
	shards  int   // Campaign.NumShards: the number of seeds that differ
	max     int64 // Campaign.MaxWorkloads (0 = the whole space)
	reorder int
	faults  string // comma list for b3.ParseFaultKinds
	corpus  bool   // write a corpus to a fresh directory
}

// workloads are the benchmark's workloads; README.md says why each exists.
var workloads = []spec{
	// ACE generation dominates: 1 in 100 generated workloads is tested.
	{name: "seq2-matrix-sparse", profile: b3.Seq2, sample: 25, shards: 4, max: 20000},
	// The KV family: WAL-heavy profiles, KV reorder and fault sweeps, corpus
	// writes.
	{name: "kv-seq3-sweeps-corpus", profile: "kv-seq3", shards: 14, reorder: 1, faults: "corrupt", corpus: true},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// class maps a seed onto the spec's residue classes.
func (s spec) class(seed int64) int {
	n := int64(max(s.shards, 1))
	return int((seed%n + n) % n)
}

func (s spec) faultModel() (blockdev.FaultModel, error) {
	if s.faults == "" {
		return blockdev.FaultModel{}, nil
	}
	kinds, err := b3.ParseFaultKinds(s.faults)
	if err != nil {
		return blockdev.FaultModel{}, err
	}
	return blockdev.FaultModel{Kinds: kinds}.Canonical(), nil
}

// campaign is the facade configuration of one residue class.
func (s spec) campaign(class, workers int, corpusDir string) (b3.Campaign, error) {
	fm, err := s.faultModel()
	if err != nil {
		return b3.Campaign{}, err
	}
	c := b3.Campaign{
		Profile:      s.profile,
		Workers:      workers,
		MaxWorkloads: s.max,
		SampleEvery:  s.sample,
		DedupKnown:   true,
		Reorder:      s.reorder,
		Faults:       fm,
		CorpusDir:    corpusDir,
	}
	if s.shards > 1 {
		c.Shard, c.NumShards = class, s.shards
	}
	return c, nil
}

// kv reports whether the spec runs the KV workload family.
func (s spec) kv() bool { return kvace.IsProfile(string(s.profile)) }

// space resolves the workload space the traced mirror enumerates: exactly
// one of the two results is non-nil.
func (s spec) space() (*ace.Bounds, *kvace.Bounds, error) {
	if s.kv() {
		b, err := kvace.Profile(string(s.profile))
		return nil, &b, err
	}
	b, err := ace.Profile(s.profile)
	return &b, nil, err
}

// setup is what a campaign needs before RunCampaignMatrix: one file system
// per backend, each backend's known-bug database, and (for corpus
// workloads) a fresh corpus directory.
type setup struct {
	names     []string
	fss       []b3.FileSystem
	dbs       []*report.KnownDB
	corpusDir string
}

// prepare builds a setup through the facade and returns how long it took.
func prepare(s spec, workDir string) (*setup, time.Duration, error) {
	start := time.Now()
	st := &setup{names: b3.FSNames()}
	for _, name := range st.names {
		fs, err := b3.NewFS(name, b3.CampaignConfig())
		if err != nil {
			return nil, 0, err
		}
		st.fss = append(st.fss, fs)
		st.dbs = append(st.dbs, b3.KnownBugDB(name))
	}
	if s.corpus {
		dir, err := os.MkdirTemp(workDir, s.name+"-corpus-")
		if err != nil {
			return nil, 0, err
		}
		st.corpusDir = dir
	}
	return st, time.Since(start), nil
}

// cleanup removes the setup's corpus directory.
func (st *setup) cleanup() error {
	if st.corpusDir == "" {
		return nil
	}
	return os.RemoveAll(st.corpusDir)
}

// rowTotals are one matrix row's verdict totals: every count here is a
// function of the workload space and residue class alone, whatever the
// worker count or interleaving. The checked/pruned split is not, so it is
// left out.
type rowTotals struct {
	FS            string                        `json:"fs"`
	Generated     int64                         `json:"generated"`
	Tested        int64                         `json:"tested"`
	Failed        int64                         `json:"failed"`
	Errors        int64                         `json:"errors"`
	Groups        int                           `json:"groups"`
	FreshGroups   int                           `json:"fresh_groups"`
	States        int64                         `json:"states"`
	ReorderStates int64                         `json:"reorder_states"`
	ReorderBroken int64                         `json:"reorder_broken"`
	FaultStates   [blockdev.NumFaultKinds]int64 `json:"fault_states"` // indexed by blockdev.FaultKind
	FaultBroken   [blockdev.NumFaultKinds]int64 `json:"fault_broken"`
	KVLegal       int64                         `json:"kv_legal"`
	KVLostAck     int64                         `json:"kv_lost_ack"`
	KVResurrected int64                         `json:"kv_resurrected"`
	KVUnreplay    int64                         `json:"kv_unreplayable"`
}

func totalsOf(s *b3.CampaignStats) rowTotals {
	t := rowTotals{
		FS:            s.FSName,
		Generated:     s.Generated,
		Tested:        s.Tested,
		Failed:        s.Failed,
		Errors:        s.Errors,
		Groups:        len(s.Groups),
		FreshGroups:   len(s.FreshGroups),
		States:        s.StatesTotal,
		ReorderStates: s.ReorderStates,
		ReorderBroken: s.ReorderBroken,
		KVLegal:       s.KVClasses.Legal,
		KVLostAck:     s.KVClasses.LostAck,
		KVResurrected: s.KVClasses.Resurrected,
		KVUnreplay:    s.KVClasses.Unreplayable,
	}
	for _, f := range s.FaultKinds {
		k, err := blockdev.ParseFaultKind(f.Kind)
		if err != nil {
			continue
		}
		t.FaultStates[k] = f.States
		t.FaultBroken[k] = f.Broken
	}
	return t
}

// allStates counts every crash state the row enumerated: checkpoint,
// reorder and fault states, class-skipped ones included.
func (t rowTotals) allStates() int64 {
	n := t.States + t.ReorderStates
	for _, f := range t.FaultStates {
		n += f
	}
	return n
}

// sumTotals adds up the rows' tested, errored and enumerated-state counts.
func sumTotals(rows []rowTotals) (tested, errors, states int64) {
	for _, r := range rows {
		tested += r.Tested
		errors += r.Errors
		states += r.allStates()
	}
	return tested, errors, states
}

// pins holds the pinned verdict totals: workload name -> residue class ->
// one rowTotals per backend, in b3.FSNames order.
type pins map[string][][]rowTotals

//go:embed pins.json
var pinsJSON []byte

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// verify checks one run's totals against the pins and the reference
// backend's zero-failing gate.
func (p pins) verify(s spec, class int, got []rowTotals) error {
	for _, r := range got {
		if r.FS == "diskfmt" && r.Failed != 0 {
			return fmt.Errorf("reference backend diskfmt reports %d failing workloads", r.Failed)
		}
	}
	classes := p[s.name]
	if class >= len(classes) {
		return fmt.Errorf("no pinned totals for %s class %d", s.name, class)
	}
	want := classes[class]
	if len(got) != len(want) {
		return fmt.Errorf("%s class %d: %d rows, pinned %d", s.name, class, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s class %d: verdict totals differ from the pin\n got: %+v\nwant: %+v",
				s.name, class, got[i], want[i])
		}
	}
	return nil
}
