package main

import (
	"fmt"
	"math/rand"

	"caps/internal/config"
	"caps/internal/kernels"
)

// maxInsts is every simulation's instruction cap. It is half the cap
// BENCH_caps.json was recorded at, so that a run of the benchmark's
// length repeats each simulation often enough for a steady median;
// expected.json holds the results at this cap.
const maxInsts = 100_000

// Paper Fig. 10 means of CAPS's normalized IPC, the only reference the
// model is compared against.
const (
	paperRegular   = 1.09
	paperIrregular = 1.06
)

// simSpec is one simulation of a workload.
type simSpec struct {
	bench  string
	pf     string // registered prefetcher: "none" or "caps"
	sched  config.SchedulerKind
	lensed bool // capsprof, memlens and schedlens attached
}

func (s simSpec) name() string {
	n := fmt.Sprintf("%s-%s-%s", s.bench, s.pf, s.sched)
	if s.lensed {
		n += "-lens"
	}
	return n
}

// plain is the same simulation without lenses.
func (s simSpec) plain() simSpec {
	s.lensed = false
	return s
}

// config derives the run's configuration from the Table III default.
func (s simSpec) config() config.GPUConfig {
	return config.Derive(config.Default(), config.Overrides{Scheduler: s.sched, MaxInsts: maxInsts})
}

// workload is a named set of simulations. Every benchmark runs as the
// paper's baseline (none/tlv) and as CAPS (caps/pas); each lens benchmark,
// which must be one of the benchmarks, also runs caps/pas with all three
// lenses attached.
type workload struct {
	name        string
	benches     []string
	lensBenches []string
}

func abbrs(ks []*kernels.Kernel) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.Abbr
	}
	return out
}

// workloads are the benchmark's named workloads; NOTES.md says why each
// was chosen.
func workloads() []workload {
	return []workload{
		{name: "regular", benches: abbrs(kernels.Regular()), lensBenches: []string{"CNV", "MM"}},
		{name: "irregular", benches: abbrs(kernels.IrregularSet()), lensBenches: []string{"KM"}},
		{name: "lensed", benches: []string{"CNV", "KM"}, lensBenches: []string{"CNV", "KM"}},
	}
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

var (
	baseline = simSpec{pf: "none", sched: config.SchedTwoLevel}
	capsRun  = simSpec{pf: "caps", sched: config.SchedPAS}
)

// units lists the workload's simulations in a fixed order, grouped into
// the units a pass runs back to back: a lensed run directly follows the
// same run without lenses, so the two see the same host conditions.
func (w workload) units() [][]simSpec {
	lensed := map[string]bool{}
	for _, b := range w.lensBenches {
		lensed[b] = true
	}
	var out [][]simSpec
	for _, b := range w.benches {
		base, caps := baseline, capsRun
		base.bench, caps.bench = b, b
		out = append(out, []simSpec{base})
		if !lensed[b] {
			out = append(out, []simSpec{caps})
			continue
		}
		lens := caps
		lens.lensed = true
		out = append(out, []simSpec{caps, lens})
	}
	return out
}

// sims lists the workload's simulations in a fixed order.
func (w workload) sims() []simSpec {
	var out []simSpec
	for _, u := range w.units() {
		out = append(out, u...)
	}
	return out
}

// paperRef is the paper's CAPS mean for the workload's benchmarks: the
// regular or irregular Fig. 10 mean of each benchmark's class, averaged.
func (w workload) paperRef() (float64, error) {
	var sum float64
	for _, b := range w.benches {
		k, err := kernels.ByAbbr(b)
		if err != nil {
			return 0, err
		}
		if k.Irregular {
			sum += paperIrregular
		} else {
			sum += paperRegular
		}
	}
	return sum / float64(len(w.benches)), nil
}

// shuffled returns the units in the order one pass runs them. The
// kernels take no seed, so the seed decides only this order, drawn afresh
// for every pass.
func shuffled(rng *rand.Rand, units [][]simSpec) [][]simSpec {
	us := append([][]simSpec(nil), units...)
	rng.Shuffle(len(us), func(i, j int) { us[i], us[j] = us[j], us[i] })
	return us
}

// order returns the simulations in the order one pass runs them.
func order(rng *rand.Rand, units [][]simSpec) []simSpec {
	var out []simSpec
	for _, u := range shuffled(rng, units) {
		out = append(out, u...)
	}
	return out
}
