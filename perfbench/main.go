// Command perfbench is the repository's end-to-end benchmark. Each run
// executes one named campaign workload through the public facade
// (b3.RunCampaignMatrix) over every backend, repeating the campaign for
// -seconds, checks every campaign's verdict totals against the pinned
// values, and prints its metrics; the last line of standard output is one
// JSON object. With -trace 1 it instead alternates untraced product
// campaigns with traced ones driven through the layer entry points, gates
// the traced verdict totals on the product's, and prints per-layer
// metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupsPerCampaign is how many extra set-ups a run times before each
// measured campaign. A set-up takes about 0.1 ms and single samples vary
// by 2x; spreading the samples over the whole run, like the campaigns,
// keeps one noisy instant from setting setup_s.
const setupsPerCampaign = 100

// more reports whether another campaign as long as the last one still ends
// within the run's time.
func more(start time.Time, last, seconds time.Duration) bool {
	return time.Since(start)+last <= seconds
}

func main() { os.Exit(realMain()) }

func realMain() int {
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.name
	}
	var (
		name       = flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed       = flag.Int64("seed", 0, "picks the residue class of the workload space the run tests")
		seconds    = flag.Float64("seconds", 10, "how long to keep repeating the campaign, after one warm-up campaign")
		trace      = flag.Int("trace", 0, "1 = traced run: per-layer metrics behind the parity gate")
		work       = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for corpora and span files")
		pinOut     = flag.String("pin", "", "recompute the pinned verdict totals of every residue class into this file, then exit")
		layerTable = flag.Bool("layer-table", false, "print the layer-share table of one traced campaign per workload, then exit")
	)
	flag.Parse()
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	workers := runtime.GOMAXPROCS(0)
	var err error
	switch {
	case *pinOut != "":
		err = pinAll(*pinOut, *work, workers)
	case *layerTable:
		err = layerTableAll(os.Stdout, *work, workers)
	default:
		var res *result
		res, err = runOne(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *work, workers)
		if err == nil {
			res.print(os.Stdout)
			if !res.correct {
				return 1
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is one run's outcome.
type result struct {
	workload  string
	class     int
	workers   int
	correct   bool
	problems  []string
	attempted int64 // workloads tested or errored, over every campaign of the run
	failed    int64 // workloads errored
	reps      int
	defs      []metricDef
	values    map[string]float64
	timings   map[string]summary // per-rep timing summaries for the report
	notes     []string
}

func (r *result) fail(err error) {
	r.correct = false
	r.problems = append(r.problems, err.Error())
}

// print writes the human-readable report, then the JSON line.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s, residue class %d, %d workers, %d measured campaigns\n",
		r.workload, r.class, r.workers, r.reps)
	for _, d := range r.defs {
		line := fmt.Sprintf("  %-34s %14.6g %s", d.name, r.values[d.name], d.unit)
		if s, ok := r.timings[d.name]; ok {
			line += fmt.Sprintf("   (median of n=%d", s.n)
			if s.tailPct > 0 {
				line += fmt.Sprintf(", p%g %.6g", s.tailPct, s.tail)
			}
			line += ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED: "+p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, d := range r.defs {
		out.Metrics[d.name] = value{r.values[d.name], d.unit}
	}
	buf, _ := json.Marshal(out) // plain structs of numbers and strings
	fmt.Fprintln(w, string(buf))
}

// runOne runs one workload for the given time, untraced or traced.
func runOne(name string, seed int64, seconds time.Duration, traced bool, work string, workers int) (*result, error) {
	s, err := lookupSpec(name)
	if err != nil {
		return nil, err
	}
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	r := &result{workload: s.name, class: s.class(seed), workers: workers, correct: true,
		values: map[string]float64{}, timings: map[string]summary{}}
	if traced {
		r.defs = perLayerMetrics
		return r, runTracedLoop(r, s, p, seconds, work)
	}
	r.defs = endToEndMetrics
	return r, runPlainLoop(r, s, p, seconds, work)
}

// product prepares a setup, runs one untraced campaign, verifies it, and
// removes the setup's corpus.
//
// A forced collection first gives every campaign the same starting heap,
// so no campaign pays for garbage an earlier one left behind.
func (r *result) product(s spec, p pins, work string) (*productRep, time.Duration, error) {
	runtime.GC()
	st, setupDur, err := prepare(s, work)
	if err != nil {
		return nil, 0, err
	}
	rep, err := runProduct(s, r.class, r.workers, st)
	if cerr := st.cleanup(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	tested, errs, _ := sumTotals(rep.totals)
	r.attempted += tested + errs
	r.failed += errs
	if verr := p.verify(s, r.class, rep.totals); verr != nil {
		r.fail(verr)
	}
	return rep, setupDur, nil
}

// runPlainLoop is the untraced run: one warm-up campaign, then campaigns
// while another fits in the time, each after a batch of timed set-ups.
// Every metric is the median over the measured campaigns; setup_s is the
// median over every set-up timed after the warm-up.
func runPlainLoop(r *result, s spec, p pins, seconds time.Duration, work string) error {
	if _, _, err := r.product(s, p, work); err != nil || !r.correct {
		return err
	}
	var setups []float64
	perRep := map[string][]float64{}
	var errShare []float64
	start := time.Now()
	for r.correct {
		runtime.GC()
		for i := 0; i < setupsPerCampaign; i++ {
			st, d, err := prepare(s, work)
			if err != nil {
				return err
			}
			if err := st.cleanup(); err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		rep, setupDur, err := r.product(s, p, work)
		if err != nil {
			return err
		}
		setups = append(setups, setupDur.Seconds())
		for k, v := range rep.endToEnd() {
			perRep[k] = append(perRep[k], v)
		}
		tested, errs, _ := sumTotals(rep.totals)
		errShare = append(errShare, ratio(errs, tested+errs))
		r.reps++
		if !more(start, rep.wall, seconds) {
			break
		}
	}
	perRep["setup_s"] = setups
	for k, xs := range perRep {
		r.values[k] = median(xs)
		r.timings[k] = summarize(xs)
	}
	r.values["peak_rss_mib"] = peakRSSMiB()
	r.notes = append(r.notes, fmt.Sprintf("workload_error_share %.6g (errored / (tested + errored), median over campaigns; %d of %d workloads errored)",
		median(errShare), r.failed, r.attempted))
	return nil
}

// runTracedLoop is the traced run: after one warm-up campaign it
// alternates an untraced product campaign with a traced one until the
// time is up. Every traced campaign must reproduce the product's verdict
// totals exactly (the parity gate). Spans of the last traced campaign are
// written under work.
func runTracedLoop(r *result, s spec, p pins, seconds time.Duration, work string) error {
	if _, _, err := r.product(s, p, work); err != nil || !r.correct {
		return err
	}
	perRep := map[string][]float64{}
	var untraced, traced, gc, profileMS []float64
	var last *tracedRun
	start := time.Now()
	for r.correct {
		rep, _, err := r.product(s, p, work)
		if err != nil {
			return err
		}
		runtime.GC()
		st, _, err := prepare(s, work)
		if err != nil {
			return err
		}
		tr, err := runTraced(s, r.class, r.workers, st)
		if cerr := st.cleanup(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if perr := parity(rep.totals, tr.totals); perr != nil {
			r.fail(perr)
			break
		}
		untraced = append(untraced, rep.wall.Seconds())
		traced = append(traced, tr.wall.Seconds())
		gc = append(gc, rep.gcShare())
		for k, v := range layerMetrics(tr, s.kv()) {
			perRep[k] = append(perRep[k], v)
		}
		for i := range tr.accs {
			for _, ns := range tr.accs[i].profileNS {
				profileMS = append(profileMS, float64(ns)/1e6)
			}
		}
		last = tr
		r.reps++
		if !more(start, rep.wall+tr.wall, seconds) {
			break
		}
	}
	if last == nil {
		return nil
	}
	for k, xs := range perRep {
		r.values[k] = median(xs)
	}
	r.values["campaign.states_checked_range"] = spread(perRep["campaign.states_checked"])
	r.values["cache.misses_range"] = spread(perRep["cache.misses"])
	prof := summarize(profileMS)
	r.values["profile.p50_ms"] = prof.median
	r.values["profile.tail_ms"] = prof.tail
	r.values["profile.tail_pct"] = prof.tailPct
	r.values["profile.samples"] = float64(prof.n)
	r.values["runtime.gc_cpu_share"] = median(gc)
	r.values["trace.overhead_share"] = (median(traced) - median(untraced)) / median(untraced)
	path := filepath.Join(work, fmt.Sprintf("spans-%s-class%d.jsonl.gz", s.name, r.class))
	if err := writeSpans(path, last.recs, last.names()); err != nil {
		return err
	}
	r.notes = append(r.notes, fmt.Sprintf("parity gate passed on %d traced campaigns; spans of the last one in %s", r.reps, path))
	return nil
}

func (tr *tracedRun) names() []string {
	names := make([]string, len(tr.rows))
	for i, row := range tr.rows {
		names[i] = row.name
	}
	return names
}

// parity is the gate on the traced mirror: its verdict totals must equal
// the untraced product campaign's, row for row.
func parity(product, traced []rowTotals) error {
	if len(product) != len(traced) {
		return fmt.Errorf("parity: traced mirror ran %d rows, product %d", len(traced), len(product))
	}
	var errs []error
	for i := range product {
		if product[i] != traced[i] {
			errs = append(errs, fmt.Errorf("parity: traced mirror drifted from the product\n product: %+v\n  traced: %+v",
				product[i], traced[i]))
		}
	}
	return errors.Join(errs...)
}

// pinAll recomputes the pinned verdict totals of every residue class of
// every workload and writes them to path. Each class runs twice, with one
// worker and with the full pool, and the two must agree.
func pinAll(path, work string, workers int) error {
	out := pins{}
	for _, s := range workloads {
		for class := 0; class < max(s.shards, 1); class++ {
			var runs [][]rowTotals
			for _, w := range []int{1, workers} {
				st, _, err := prepare(s, work)
				if err != nil {
					return err
				}
				rep, err := runProduct(s, class, w, st)
				if cerr := st.cleanup(); err == nil {
					err = cerr
				}
				if err != nil {
					return err
				}
				runs = append(runs, rep.totals)
			}
			if err := parity(runs[0], runs[1]); err != nil {
				return fmt.Errorf("%s class %d: totals depend on the worker count: %w", s.name, class, err)
			}
			out[s.name] = append(out[s.name], runs[0])
			fmt.Fprintf(os.Stderr, "pinned %s class %d\n", s.name, class)
		}
	}
	buf, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// layerTableAll prints the layer-share table from one traced campaign per
// workload (residue class 0, after one untraced warm-up campaign).
func layerTableAll(w io.Writer, work string, workers int) error {
	var names []string
	var shares []layerShares
	for _, s := range workloads {
		for _, traced := range []bool{false, true} {
			st, _, err := prepare(s, work)
			if err != nil {
				return err
			}
			if traced {
				var tr *tracedRun
				tr, err = runTraced(s, 0, workers, st)
				if err == nil {
					names = append(names, s.name)
					shares = append(shares, sharesOf(tr))
				}
			} else {
				_, err = runProduct(s, 0, workers, st)
			}
			if cerr := st.cleanup(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
	}
	writeLayerTable(w, names, shares)
	return nil
}
