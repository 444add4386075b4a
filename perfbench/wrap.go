package main

import (
	"fmt"
	"hash"

	"caps/internal/config"
	"caps/internal/obs"
	"caps/internal/prefetch"
	"caps/internal/sched"
	"caps/internal/stats"
)

// The traced pass times the scheduler and the prefetcher in place: the
// simulator resolves both by name, so the benchmark registers timing
// wrappers under "timed-<name>" and selects those. A wrapper forwards
// every optional interface a serial run probes for (stall replay, idle
// quiescence, obs attachment, state hashing), so a run through wrappers
// is the same simulation, checkpoint hash for hash. The invariant
// sanitizer (CheckInvariants) is not supported: it asserts concrete
// types, which no wrapper can forward.

// Sampling periods (powers of two): one call in N is timed.
const (
	pickSampleMask   = 16 - 1
	onLoadSampleMask = 4 - 1
)

// layerCounts are the wrappers' work counts for one traced pass.
type layerCounts struct {
	picks, pickIssued, wakeups int64
	onLoads, candidates        int64
	steps                      int64
}

// layerRec gathers the traced pass's per-layer samples.
type layerRec struct {
	counts                 layerCounts
	pickNS, onLoadNS       hist
	stepNS                 hist
	l1NS, l2NS, dramTickNS hist
	lens                   lensTimes // summed over lensRuns runs
	lensRuns               int64
}

// layer is the recorder that wrappers built by sim.New report to. The
// registries' factories take no argument through which to hand it over;
// the benchmark runs one simulation at a time and swaps it only between
// runs.
var layer = &layerRec{}

// The schedulers and prefetchers the benchmark runs, each wrapped.
var (
	wrappedScheds = []config.SchedulerKind{config.SchedTwoLevel, config.SchedPAS}
	wrappedPrefs  = []string{"none", "caps"}
)

func timedName[T ~string](name T) T { return "timed-" + name }

func init() {
	for _, name := range wrappedScheds {
		sched.Register(string(timedName(name)), func(cfg config.GPUConfig) sched.Scheduler {
			inner, err := sched.New(string(name), cfg)
			if err != nil {
				panic(fmt.Sprintf("perfbench: wrapping scheduler %q: %v", name, err))
			}
			return newTimedSched(inner, layer)
		})
	}
	for _, name := range wrappedPrefs {
		prefetch.Register(timedName(name), func(cfg config.GPUConfig, st *stats.Sim) prefetch.Prefetcher {
			inner, err := prefetch.New(name, cfg, st)
			if err != nil {
				panic(fmt.Sprintf("perfbench: wrapping prefetcher %q: %v", name, err))
			}
			return newTimedPref(inner, layer)
		})
	}
}

// Optional interfaces the simulator discovers by assertion.
type (
	obsAttacher interface{ AttachObs(*obs.Sink, int) }
	obsClock    interface{ ObsTick(now int64) }
	stateHasher interface{ HashState(h hash.Hash64) }
)

// timedSched times Pick and counts scheduler work.
type timedSched struct {
	sched.Scheduler
	rec *layerRec
	q   sched.Quiescer
	sr  sched.StallRunner
	sc  sched.StallCoster
	oa  obsAttacher
	oc  obsClock
	sh  stateHasher
}

func newTimedSched(inner sched.Scheduler, rec *layerRec) *timedSched {
	t := &timedSched{Scheduler: inner, rec: rec}
	t.q, _ = inner.(sched.Quiescer)
	t.sr, _ = inner.(sched.StallRunner)
	t.sc, _ = inner.(sched.StallCoster)
	t.oa, _ = inner.(obsAttacher)
	t.oc, _ = inner.(obsClock)
	t.sh, _ = inner.(stateHasher)
	return t
}

func (t *timedSched) Pick(now int64, v sched.View) int {
	c := &t.rec.counts
	c.picks++
	var slot int
	if c.picks&pickSampleMask == 0 {
		t0 := nanotime()
		slot = t.Scheduler.Pick(now, v)
		t.rec.pickNS.addClockNet(nanotime() - t0)
	} else {
		slot = t.Scheduler.Pick(now, v)
	}
	if slot >= 0 {
		c.pickIssued++
	}
	return slot
}

func (t *timedSched) OnWake(slot int) bool {
	promoted := t.Scheduler.OnWake(slot)
	if promoted {
		t.rec.counts.wakeups++
	}
	return promoted
}

// Quiescent answers false, the simulator's reading of a scheduler without
// the interface, when the wrapped one lacks it.
func (t *timedSched) Quiescent(v sched.View) bool { return t.q != nil && t.q.Quiescent(v) }

// BeginStall refuses the replay, as for a scheduler without the interface,
// when the wrapped one lacks it.
func (t *timedSched) BeginStall(v sched.StallView) (picks, ok bool) {
	if t.sr == nil {
		return false, false
	}
	return t.sr.BeginStall(v)
}

func (t *timedSched) StallTick(m int) {
	if t.sr != nil {
		t.sr.StallTick(m)
	}
}

func (t *timedSched) StallCost() sched.StallCost {
	if t.sc == nil {
		return sched.StallCost{}
	}
	return t.sc.StallCost()
}

func (t *timedSched) AttachObs(s *obs.Sink, smID int) {
	if t.oa != nil {
		t.oa.AttachObs(s, smID)
	}
}

func (t *timedSched) ObsTick(now int64) {
	if t.oc != nil {
		t.oc.ObsTick(now)
	}
}

func (t *timedSched) HashState(h hash.Hash64) {
	if t.sh != nil {
		t.sh.HashState(h)
	}
}

// timedPref times OnLoad and counts the candidates it returns.
type timedPref struct {
	prefetch.Prefetcher
	rec *layerRec
	oa  obsAttacher
	sh  stateHasher
}

func newTimedPref(inner prefetch.Prefetcher, rec *layerRec) *timedPref {
	t := &timedPref{Prefetcher: inner, rec: rec}
	t.oa, _ = inner.(obsAttacher)
	t.sh, _ = inner.(stateHasher)
	return t
}

func (t *timedPref) OnLoad(o *prefetch.Observation) []prefetch.Candidate {
	c := &t.rec.counts
	c.onLoads++
	var out []prefetch.Candidate
	if c.onLoads&onLoadSampleMask == 0 {
		t0 := nanotime()
		out = t.Prefetcher.OnLoad(o)
		t.rec.onLoadNS.addClockNet(nanotime() - t0)
	} else {
		out = t.Prefetcher.OnLoad(o)
	}
	c.candidates += int64(len(out))
	return out
}

func (t *timedPref) AttachObs(s *obs.Sink, smID int) {
	if t.oa != nil {
		t.oa.AttachObs(s, smID)
	}
}

func (t *timedPref) HashState(h hash.Hash64) {
	if t.sh != nil {
		t.sh.HashState(h)
	}
}
