package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"slices"
	"testing"

	"caps/internal/config"
	"caps/internal/experiments"
	"caps/internal/invariant/determinism"
	"caps/internal/kernels"
	"caps/internal/sim"
)

// The timing wrappers must leave the simulation untouched: the same
// checkpoint-hash series as the plain scheduler and prefetcher, with the
// idle fast-forward on (it probes the optional interfaces they forward).
func TestWrappersKeepCheckpointSeries(t *testing.T) {
	for _, bench := range []string{"CNV", "KM"} {
		for _, s := range []simSpec{baseline, capsRun} {
			s.bench = bench
			t.Run(s.name(), func(t *testing.T) {
				cfg := s.config()
				cfg.MaxInsts = 40_000
				plain, err := determinism.CheckpointRun(cfg, bench, 1024,
					sim.WithPrefetcher(s.pf), sim.WithWorkers(1), sim.WithIdleSkip())
				if err != nil {
					t.Fatal(err)
				}
				timed, err := determinism.CheckpointRun(cfg, bench, 1024,
					sim.WithPrefetcher(timedName(s.pf)), sim.WithScheduler(timedName(s.sched)),
					sim.WithWorkers(1), sim.WithIdleSkip())
				if err != nil {
					t.Fatal(err)
				}
				if len(plain) < 4 {
					t.Fatalf("only %d checkpoints", len(plain))
				}
				if !slices.Equal(plain, timed) {
					t.Fatalf("checkpoint series differ:\nplain %v\ntimed %v", plain, timed)
				}
			})
		}
	}
	if layer.counts.picks == 0 || layer.counts.onLoads == 0 {
		t.Fatalf("wrappers saw no work: %+v", layer.counts)
	}
}

// caps_speedup is the Fig. 10 headline: it must equal what
// experiments.Figure10 prints for the same benchmarks and cap.
func TestCapsSpeedupMatchesFigure10(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Fig. 10 for two benchmarks")
	}
	chk, err := loadChecker("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	speedup := map[string]string{}
	for row, abbr := range map[string]string{"Mean(reg)": "CNV", "Mean(irreg)": "KM"} {
		b := &bench{w: workload{name: abbr, benches: []string{abbr}}, chk: chk}
		for _, s := range b.w.sims() {
			r, err := runPlain(s)
			if !b.record(s, r.st, err) {
				t.Fatalf("%s failed", s.name())
			}
		}
		v, _, err := b.capsSpeedup()
		if err != nil {
			t.Fatal(err)
		}
		speedup[row] = fmt.Sprintf("%.3f", v)
	}

	cfg := config.Default()
	cfg.MaxInsts = maxInsts
	tab, err := experiments.Figure10(experiments.NewSuite(cfg,
		experiments.WithParallelism(1), experiments.WithBenches([]string{"CNV", "KM"})))
	if err != nil {
		t.Fatal(err)
	}
	col := slices.Index(tab.Header, "caps")
	found := 0
	for _, r := range tab.Rows {
		want, ok := speedup[r[0]]
		if !ok {
			continue
		}
		found++
		if r[col] != want {
			t.Errorf("%s: Figure10 caps %s, benchmark caps_speedup %s", r[0], r[col], want)
		}
	}
	if found != len(speedup) {
		t.Fatalf("Figure10 table lacks a mean row:\n%s", tab)
	}
}

// Every emitted name is well-formed, carries a unit, and is the one
// BENCHMARK.json declares.
func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("bad metric %+v", m)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("%s declared twice", m.Name)
		}
		seen[m.Name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(decl.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", decl.EndToEnd, endToEnd)
	}
	if !slices.Equal(decl.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", decl.PerLayer, perLayer)
	}

	vals := map[string]float64{}
	for _, m := range endToEnd {
		vals[m.Name] = 1
	}
	if _, err := newResult(endToEnd, vals, 1, 0); err != nil {
		t.Fatal(err)
	}
	vals["extra"] = 1
	if _, err := newResult(endToEnd, vals, 1, 0); err == nil {
		t.Fatal("an undeclared metric was accepted")
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		h.add(rng.Int63n(1_000_000))
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*1_000_000
		if got < want*0.95 || got > want*1.05 {
			t.Errorf("quantile(%v) = %v, want about %v", q, got, want)
		}
	}
	for v := int64(0); v < 1<<20; v = v*5/4 + 1 {
		if b := histBucket(v); histLow(b) > v || histLow(b+1) <= v {
			t.Fatalf("value %d in bucket %d = [%d,%d)", v, b, histLow(b), histLow(b+1))
		}
	}
}

var update = flag.Bool("update", false, "rewrite expected.json from the simulator")

// expected.json must be what the simulator produces now; -update
// regenerates it after a deliberate change to the model.
func TestExpectedOutputs(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("runs every benchmark twice")
	}
	got := expectedFile{MaxInsts: maxInsts, Runs: map[string]expectedRun{}}
	for _, k := range kernels.All() {
		for _, s := range []simSpec{baseline, capsRun} {
			s.bench = k.Abbr
			r, err := runPlain(s)
			if err != nil {
				t.Fatal(err)
			}
			got.Runs[s.name()] = expectedRun{r.st.Cycles, r.st.Instructions}
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	chk, err := loadChecker("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(chk.want.Runs, got.Runs) {
		t.Fatalf("expected.json is stale; rerun with -update after a deliberate model change\nhave %v\nwant %v",
			chk.want.Runs, got.Runs)
	}
}

func TestCheckerRejectsMismatch(t *testing.T) {
	chk, err := loadChecker("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	s := capsRun
	s.bench = "CP"
	r, err := runPlain(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.check(s, r.st); err != nil {
		t.Fatal(err)
	}
	bad := *r.st
	bad.DRAMReads++
	if chk.check(s, &bad) == nil {
		t.Error("a repeat with different statistics passed")
	}
	bad = *r.st
	bad.Instructions = maxInsts - 1
	if chk.check(s, &bad) == nil {
		t.Error("a run short of its instruction cap passed")
	}
	want := chk.want.Runs[s.name()]
	want.TotalCycles++
	chk.want.Runs[s.name()] = want
	if chk.check(s, r.st) == nil {
		t.Error("a run that disagrees with expected.json passed")
	}
}

// The probe runs between simulations, so it must leave the live heap that
// heap_peak_mb reads as it found it.
func TestProbeLeavesHeap(t *testing.T) {
	var before, after runtime.MemStats
	probe()
	runtime.GC()
	runtime.ReadMemStats(&before)
	if d := probe(); d <= 0 {
		t.Fatalf("probe took %d ns", d)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 64<<10 {
		t.Fatalf("live heap grew by %d bytes across a probe", grown)
	}
}
