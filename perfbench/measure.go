package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"

	"caps/internal/kernels"
	"caps/internal/obs"
	"caps/internal/sim"
	"caps/internal/stats"
)

// setupRounds is how many times an untraced run sets up the whole
// simulation set before measuring, on top of the set-up each pass does.
const setupRounds = 20

// prepared is a built simulation, ready to run.
type prepared struct {
	g    *sim.GPU
	lens *lensSet  // nil unless the spec is lensed
	snk  *obs.Sink // the run's sink, nil when nothing observes it
}

// setup derives the configuration, looks up the kernel and builds the GPU:
// the set-up a user of the simulator pays before every run. Every run is
// serial (one worker) with the idle fast-forward on. extra options come
// last, so they override.
func setup(s simSpec, snk *obs.Sink, extra ...sim.Option) (prepared, error) {
	cfg := s.config()
	k, err := kernels.ByAbbr(s.bench)
	if err != nil {
		return prepared{}, err
	}
	opts := []sim.Option{sim.WithPrefetcher(s.pf), sim.WithWorkers(1), sim.WithIdleSkip()}
	p := prepared{snk: snk}
	if s.lensed {
		var lensOpts []sim.Option
		p.lens, lensOpts = attachLenses(cfg)
		p.snk = p.lens.snk
		opts = append(opts, lensOpts...)
	} else if snk != nil {
		opts = append(opts, sim.WithObs(snk))
	}
	p.g, err = sim.New(cfg, k, append(opts, extra...)...)
	if err != nil {
		return prepared{}, fmt.Errorf("%s: %w", s.name(), err)
	}
	return p, nil
}

// plainRun is one untraced simulation's measurements, host times in ns.
type plainRun struct {
	setup, run int64
	alloc      uint64 // bytes allocated while running
	heap       uint64 // live heap after the run, the GPU still reachable
	st         *stats.Sim
}

// runPlain sets up and runs one simulation untraced. The run time covers
// GPU.Run and, for a lensed run, building, validating and encoding the
// lens profiles: what a user attaching lenses waits for.
func runPlain(s simSpec) (plainRun, error) {
	var r plainRun
	var ms runtime.MemStats
	runtime.GC()
	t0 := nanotime()
	p, err := setup(s, nil)
	r.setup = nanotime() - t0
	if err != nil {
		return r, err
	}
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	t1 := nanotime()
	r.st, err = p.g.Run()
	if err == nil && p.lens != nil {
		_, err = p.lens.finish(s, r.st)
	}
	r.run = nanotime() - t1
	runtime.ReadMemStats(&ms)
	r.alloc = ms.TotalAlloc - alloc0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heap = ms.HeapAlloc
	runtime.KeepAlive(p)
	if err != nil {
		return r, fmt.Errorf("%s: %w", s.name(), err)
	}
	return r, nil
}

// bench is one benchmark invocation: a workload, its seeded order, the
// output checker and the tally of simulations attempted and failed.
type bench struct {
	w         workload
	rng       *rand.Rand
	chk       *checker
	deadline  int64 // nanotime at which measuring stops
	attempted int
	failed    int
}

// record counts one finished simulation and checks its output.
func (b *bench) record(s simSpec, st *stats.Sim, err error) bool {
	b.attempted++
	if err == nil {
		err = b.chk.check(s, st)
	}
	if err != nil {
		b.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
		return false
	}
	return true
}

// more reports whether another pass that takes as long as the last one
// still ends before the deadline.
func (b *bench) more(lastPass int64) bool { return nanotime()+lastPass <= b.deadline }

// measure runs the workload untraced and returns its end-to-end metrics.
// Each pass runs every simulation once, in a fresh seeded order, with the
// host speed probe after every unit; each host time is scaled to the
// probe's nominal speed (probe.go). A simulation's host time is its
// median over the passes: on a shared host single runs spread by ±10%, in
// both directions, so neither one run nor the fastest repeats.
func (b *bench) measure() (map[string]float64, error) {
	units := b.w.units()
	sp := newSpeed()
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		var sum int64
		for _, s := range order(b.rng, units) {
			runtime.GC()
			t0 := nanotime()
			p, err := setup(s, nil)
			sum += nanotime() - t0
			if err != nil {
				return nil, err
			}
			p.g.Close()
		}
		setups = append(setups, float64(sum)*sp.next())
	}

	times := make(map[string][]float64) // scaled by the probe
	raw := make(map[string][]float64)
	var allocs, lensRatios []float64
	var heapPeak uint64
	for {
		p0 := nanotime()
		var setupSum, lensed, plain float64
		var alloc uint64
		for _, u := range shuffled(b.rng, units) {
			// A unit runs back to back, so a lensed run and its plain twin
			// share one probe factor.
			rs := make([]plainRun, len(u))
			errs := make([]error, len(u))
			for i, s := range u {
				rs[i], errs[i] = runPlain(s)
			}
			f := sp.next()
			for i, s := range u {
				r := rs[i]
				if !b.record(s, r.st, errs[i]) {
					continue
				}
				setupSum += float64(r.setup) * f
				alloc += r.alloc
				heapPeak = max(heapPeak, r.heap)
				times[s.name()] = append(times[s.name()], float64(r.run)*f)
				raw[s.name()] = append(raw[s.name()], float64(r.run))
				if s.lensed {
					lensed += float64(r.run)
					plain += float64(rs[0].run)
				}
			}
		}
		setups = append(setups, setupSum)
		lensRatios = append(lensRatios, ratio(lensed, plain))
		allocs = append(allocs, float64(alloc))
		if !b.more(nanotime() - p0) {
			break
		}
	}
	if b.failed > 0 {
		return nil, fmt.Errorf("%d of %d simulations failed", b.failed, b.attempted)
	}
	var wall, rawWall, insts float64
	for _, s := range b.w.sims() {
		wall += median(times[s.name()])
		rawWall += median(raw[s.name()])
		st, _ := b.chk.stats(s)
		insts += float64(st.Instructions)
	}
	fmt.Fprintf(os.Stderr, "perfbench: unscaled wall %.4f s; probe median %.2f ms over %d probes, nominal %.2f ms\n",
		rawWall/1e9, median(sp.times)/1e6, len(sp.times), probeNominal/1e6)
	speedup, gap, err := b.capsSpeedup()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":         median(setups) / 1e9,
		"wall_s":          wall / 1e9,
		"sim_insts_per_s": insts / (wall / 1e9),
		"heap_peak_mb":    float64(heapPeak) / 1e6,
		"alloc_mb":        median(allocs) / 1e6,
		"caps_speedup":    speedup,
		"paper_gap":       gap,
		"lens_overhead":   median(lensRatios),
	}, nil
}

// capsSpeedup is the paper's Fig. 10 headline over the workload's
// benchmarks: the mean of IPC(caps/pas) / IPC(none/tlv), and its distance
// from the paper's mean for the same benchmarks.
func (b *bench) capsSpeedup() (speedup, gap float64, err error) {
	for _, bench := range b.w.benches {
		base, caps := baseline, capsRun
		base.bench, caps.bench = bench, bench
		bs, ok1 := b.chk.stats(base)
		cs, ok2 := b.chk.stats(caps)
		if !ok1 || !ok2 {
			return 0, 0, fmt.Errorf("%s: no statistics for the speedup", bench)
		}
		speedup += cs.IPC() / bs.IPC()
	}
	speedup /= float64(len(b.w.benches))
	ref, err := b.w.paperRef()
	if err != nil {
		return 0, 0, err
	}
	return speedup, math.Abs(speedup - ref), nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
