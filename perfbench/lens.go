package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"caps/internal/config"
	"caps/internal/memlens"
	"caps/internal/obs"
	"caps/internal/profile"
	"caps/internal/schedlens"
	"caps/internal/sim"
	"caps/internal/stats"
)

// This file is the benchmark's only contact with the lens APIs: attaching
// the capsprof profile, memlens and schedlens to a run, and building,
// validating and encoding their profiles afterwards.

// lensSet is the three lenses attached to one run, sharing one sink.
type lensSet struct {
	sms  int
	snk  *obs.Sink
	prof *profile.Collector
	mem  *memlens.Collector
	sch  *schedlens.Collector
}

// attachLenses builds the lenses for cfg and the options that attach them.
// The capsprof collector takes the per-cycle class stream, which disarms
// the whole-GPU idle jump; memlens and schedlens do not.
func attachLenses(cfg config.GPUConfig) (*lensSet, []sim.Option) {
	l := &lensSet{
		sms:  cfg.NumSMs,
		snk:  sim.NewSink(cfg, false, 0),
		prof: profile.NewCollector(cfg.NumSMs),
		mem:  memlens.ForConfig(cfg),
		sch:  schedlens.ForConfig(cfg),
	}
	l.snk.Attach(l.prof)
	return l, []sim.Option{sim.WithObs(l.snk), sim.WithMemLens(l.mem), sim.WithSchedLens(l.sch)}
}

// lensTimes is the host time finish spent in each step, in ns.
type lensTimes struct {
	build, validate, encode int64
}

// finish builds the three profiles from a finished run, validates each
// against the run's statistics and encodes each as its JSON file format.
func (l *lensSet) finish(s simSpec, st *stats.Sim) (lensTimes, error) {
	var t lensTimes
	t0 := nanotime()
	prof, err := l.prof.Build(profile.Meta{Bench: s.bench, Prefetcher: s.pf, Scheduler: string(s.sched), SMs: l.sms}, st)
	if err != nil {
		return t, err
	}
	mp := l.mem.Build(memlens.Meta{Bench: s.bench, Prefetcher: s.pf, Cycles: st.Cycles})
	sp := l.sch.Build(schedlens.Meta{Bench: s.bench, Prefetcher: s.pf, Scheduler: string(s.sched), Cycles: st.Cycles})
	t1 := nanotime()
	if err := mp.Validate(st); err != nil {
		return t, fmt.Errorf("%s: %w", s.name(), err)
	}
	if err := sp.Validate(st); err != nil {
		return t, fmt.Errorf("%s: %w", s.name(), err)
	}
	t2 := nanotime()
	var buf bytes.Buffer
	if err := prof.WriteJSON(&buf); err != nil {
		return t, err
	}
	for _, p := range []any{mp, sp} {
		if _, err := json.MarshalIndent(p, "", "  "); err != nil {
			return t, err
		}
	}
	t3 := nanotime()
	return lensTimes{build: t1 - t0, validate: t2 - t1, encode: t3 - t2}, nil
}
