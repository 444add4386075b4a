package main

import (
	"fmt"

	"caps/internal/config"
	"caps/internal/mem"
	"caps/internal/obs"
	"caps/internal/sim"
	"caps/internal/stats"
)

// Bounds on the request streams captured per traced simulation for the
// memory-layer replays.
const (
	captureCache = 1 << 15
	captureDRAM  = 1 << 14
	// replayChunk is how many cache accesses one clock sample covers.
	replayChunk = 16
)

// memEvent is one captured memory request.
type memEvent struct {
	cycle int64
	line  uint64
	kind  mem.AccessKind
}

// capture records a run's request streams through the obs consumer
// interface: SM 0's L1 accesses, partition 0's L2 accesses, and the
// requests the partitions of DRAM channel 0 send to it.
type capture struct {
	channels     int
	l1, l2, dram []memEvent
}

// WantsCycleClass declines the per-cycle stream, which would disarm the
// idle fast-forward's whole-GPU jump.
func (c *capture) WantsCycleClass() bool { return false }

func (c *capture) WantsKind(k obs.Kind) bool { return k == obs.EvMemAccess }

func (c *capture) Consume(e obs.Event) {
	class, pf := obs.UnpackAccess(e.Arg)
	ev := memEvent{cycle: e.Cycle, line: e.Addr, kind: mem.Demand}
	if pf {
		ev.kind = mem.Prefetch
	}
	switch e.Dom {
	case obs.DomSM:
		if e.Track == 0 && class != obs.AccessStore && len(c.l1) < captureCache {
			c.l1 = append(c.l1, ev)
		}
	case obs.DomPart:
		if e.Track == 0 && class != obs.AccessStore && len(c.l2) < captureCache {
			c.l2 = append(c.l2, ev)
		}
		toDRAM := class == obs.AccessMissNew || class == obs.AccessStore
		if toDRAM && int(e.Track)%c.channels == 0 && len(c.dram) < captureDRAM {
			if class == obs.AccessStore {
				ev.kind = mem.Store
			}
			c.dram = append(c.dram, ev)
		}
	}
}

// replayCache presents a captured stream to a fresh cache and samples the
// host time per access, one sample per replayChunk accesses. Misses are
// filled a chunk later, so MSHRs recycle as they do under real traffic.
func replayCache(c *mem.Cache, evs []memEvent, h *hist) error {
	reqs := make([]mem.Request, len(evs))
	pending := make([]uint64, 0, replayChunk)
	next := make([]uint64, 0, replayChunk)
	for i := 0; i < len(evs); i += replayChunk {
		end := min(i+replayChunk, len(evs))
		t0 := nanotime()
		for j := i; j < end; j++ {
			r := &reqs[j]
			*r = mem.Request{LineAddr: evs[j].line, Kind: evs[j].kind, WarpSlot: -1, IssueCycle: evs[j].cycle}
			if c.Access(evs[j].cycle, r).Outcome == mem.MissNew {
				c.PopMiss()
				next = append(next, r.LineAddr)
			}
		}
		h.add((nanotime() - t0 - clockCost) / int64(end-i))
		now := evs[end-1].cycle
		for _, line := range pending {
			if _, err := c.Fill(now, line); err != nil {
				return err
			}
		}
		pending, next = next, pending[:0]
	}
	return nil
}

// replayDRAM pushes a captured request stream into a fresh channel at the
// recorded cycles and times every Tick while the channel has work.
func replayDRAM(cfg config.GPUConfig, evs []memEvent, h *hist) {
	ch := mem.NewDRAMChannel(cfg, &stats.Sim{})
	reqs := make([]mem.Request, len(evs))
	i := 0
	for now := int64(0); i < len(evs) || !ch.Idle(); now++ {
		if ch.Idle() && evs[i].cycle > now {
			now = evs[i].cycle
		}
		for ; i < len(evs) && evs[i].cycle <= now && !ch.Full(); i++ {
			reqs[i] = mem.Request{LineAddr: evs[i].line, Kind: evs[i].kind, WarpSlot: -1, IssueCycle: evs[i].cycle}
			ch.Push(now, &reqs[i])
		}
		t0 := nanotime()
		ch.Tick(now)
		h.addClockNet(nanotime() - t0)
	}
}

// stepRun drives the GPU through GPU.Step with Run's stop conditions,
// timing each step, then applies Run's end-of-run accounting (prefetched
// lines never used). limit is the cycle the untraced run ended at: a
// traced run that passes it has already diverged.
func stepRun(g *sim.GPU, cfg config.GPUConfig, rec *layerRec, limit int64) (*stats.Sim, error) {
	defer g.Close()
	for !g.Done() {
		if cfg.MaxInsts > 0 && g.Instructions() >= cfg.MaxInsts {
			break
		}
		if cfg.MaxCycle > 0 && g.Cycle() >= cfg.MaxCycle {
			break
		}
		if g.Cycle() > limit {
			return nil, fmt.Errorf("traced run passed cycle %d, where the untraced run ended", limit)
		}
		t0 := nanotime()
		err := g.Step()
		rec.stepNS.addClockNet(nanotime() - t0)
		rec.counts.steps++
		if err != nil {
			return nil, err
		}
	}
	st := *g.Stats()
	for _, sm := range g.SMs() {
		st.PrefUnusedAtEnd += sm.L1().UnusedPrefetchedLines()
	}
	return &st, nil
}

// tracedRun is one traced simulation's run time in ns and statistics.
type tracedRun struct {
	run int64
	st  *stats.Sim
}

// runTraced sets up one simulation with the timing wrappers and a capture
// consumer, steps it, finishes its lenses and replays its memory streams.
func runTraced(s simSpec, limit int64, spans *spanLog, parent int) (tracedRun, error) {
	var r tracedRun
	cfg := s.config()
	capt := &capture{channels: cfg.DRAM.Channels}
	var snk *obs.Sink
	if !s.lensed {
		snk = sim.NewSink(cfg, false, 0)
	}
	sp := spans.begin("setup", parent)
	p, err := setup(s, snk, sim.WithPrefetcher(timedName(s.pf)), sim.WithScheduler(timedName(s.sched)))
	spans.end(sp)
	if err != nil {
		return r, err
	}
	p.snk.Attach(capt)

	sp = spans.begin("run", parent)
	t1 := nanotime()
	r.st, err = stepRun(p.g, cfg, layer, limit)
	if err == nil && p.lens != nil {
		var lt lensTimes
		lt, err = p.lens.finish(s, r.st)
		layer.lens.build += lt.build
		layer.lens.validate += lt.validate
		layer.lens.encode += lt.encode
		layer.lensRuns++
	}
	r.run = nanotime() - t1
	spans.end(sp)
	if err != nil {
		return r, fmt.Errorf("%s traced: %w", s.name(), err)
	}

	sp = spans.begin("replay.l1", parent)
	err = replayCache(mem.NewCacheWithPrefetchPool(cfg.L1, true, cfg.PrefetchBufferEntries), capt.l1, &layer.l1NS)
	spans.end(sp)
	if err != nil {
		return r, fmt.Errorf("%s: L1 replay: %w", s.name(), err)
	}
	sp = spans.begin("replay.l2", parent)
	err = replayCache(mem.NewCacheLevel(cfg.L2, false), capt.l2, &layer.l2NS)
	spans.end(sp)
	if err != nil {
		return r, fmt.Errorf("%s: L2 replay: %w", s.name(), err)
	}
	sp = spans.begin("replay.dram", parent)
	replayDRAM(cfg, capt.dram, &layer.dramTickNS)
	spans.end(sp)
	return r, nil
}

// measureTraced runs the workload's traced passes and returns the
// per-layer metrics. Each simulation runs untraced, then traced, so the
// two are interleaved in time; the traced statistics must equal the
// untraced ones exactly.
func (b *bench) measureTraced(spans *spanLog) (map[string]float64, error) {
	layer = &layerRec{}
	plainNS := make(map[string][]float64)
	tracedNS := make(map[string][]float64)
	var setups []float64
	var first layerCounts
	root := spans.begin("workload."+b.w.name, -1)
	for pass := 0; ; pass++ {
		p0 := nanotime()
		ps := spans.begin(fmt.Sprintf("pass.%d", pass), root)
		for _, s := range order(b.rng, b.w.units()) {
			ss := spans.begin(s.name(), ps)
			sp := spans.begin("untraced", ss)
			plain, err := runPlain(s)
			spans.end(sp)
			if !b.record(s, plain.st, err) {
				spans.end(ss)
				continue
			}
			tr, err := runTraced(s, plain.st.Cycles, spans, ss)
			spans.end(ss)
			if !b.record(s, tr.st, err) {
				continue
			}
			setups = append(setups, float64(plain.setup)/1e6)
			plainNS[s.name()] = append(plainNS[s.name()], float64(plain.run))
			tracedNS[s.name()] = append(tracedNS[s.name()], float64(tr.run))
		}
		spans.end(ps)
		if pass == 0 {
			first = layer.counts
		}
		if !b.more(nanotime() - p0) {
			break
		}
	}
	spans.end(root)
	if b.failed > 0 {
		return nil, fmt.Errorf("%d of %d simulations failed", b.failed, b.attempted)
	}

	var all, caps stats.Sim
	var plain, traced float64
	for _, s := range b.w.sims() {
		st, _ := b.chk.stats(s)
		addStats(&all, &st)
		if s.pf == capsRun.pf {
			addStats(&caps, &st)
		}
		plain += median(plainNS[s.name()])
		traced += median(tracedNS[s.name()])
	}
	smCycles := float64(all.Cycles) * float64(config.Default().NumSMs)
	f := func(v int64) float64 { return float64(v) }
	lensMS := func(ns int64) float64 { return ratio(f(ns), f(layer.lensRuns)) / 1e6 }
	return map[string]float64{
		"sched.pick_ns.p50":      layer.pickNS.quantile(0.50),
		"sched.pick_ns.p99":      layer.pickNS.quantile(0.99),
		"sched.picks_per_cycle":  ratio(f(first.picks), f(all.Cycles)),
		"sched.pick_issue_share": ratio(f(first.pickIssued), f(first.picks)),
		"sched.wakeups":          f(first.wakeups),

		"prefetch.onload_ns.p50":       layer.onLoadNS.quantile(0.50),
		"prefetch.onload_ns.p99":       layer.onLoadNS.quantile(0.99),
		"prefetch.onload_calls":        f(first.onLoads),
		"prefetch.candidates_per_load": ratio(f(first.candidates), f(first.onLoads)),
		"prefetch.table_lookups":       f(all.PrefTableLookup),
		"prefetch.accuracy":            caps.Accuracy(),
		"prefetch.coverage":            caps.Coverage(),
		"prefetch.drop_share":          ratio(f(caps.PrefDropped), f(caps.PrefIssued+caps.PrefDropped)),

		"mem.l1_access_ns.p50":      layer.l1NS.quantile(0.50),
		"mem.l2_access_ns.p50":      layer.l2NS.quantile(0.50),
		"mem.dram_tick_ns.p50":      layer.dramTickNS.quantile(0.50),
		"mem.dram_tick_ns.p99":      layer.dramTickNS.quantile(0.99),
		"mem.l1_hit_ratio":          ratio(f(all.DemandHits), f(all.DemandAccesses)),
		"mem.l1_merge_share":        ratio(f(all.DemandMerged), f(all.DemandAccesses)),
		"mem.l1_reservation_fails":  f(all.ReservationFails),
		"mem.l2_hit_ratio":          ratio(f(all.L2Hits), f(all.L2Accesses)),
		"mem.dram_reads":            f(all.DRAMReads),
		"mem.dram_row_hit_ratio":    ratio(f(all.DRAMRowHits), f(all.DRAMRowHits+all.DRAMRowMisses)),
		"mem.demand_latency_cycles": all.MeanDemandLatency(),

		"sim.step_ns.p50":     layer.stepNS.quantile(0.50),
		"sim.step_ns.p99":     layer.stepNS.quantile(0.99),
		"sim.steps":           f(first.steps),
		"sim.cycles_per_step": ratio(f(all.Cycles), f(first.steps)),
		"sim.ipc":             all.IPC(),
		"sm.issue_share":      ratio(f(all.IssueCycles), smCycles),
		"sm.stall_share":      ratio(f(all.StallCycles), smCycles),
		"sm.mem_stall_share":  ratio(f(all.MemStalls), smCycles),

		"lens.build_ms":    lensMS(layer.lens.build),
		"lens.validate_ms": lensMS(layer.lens.validate),
		"lens.encode_ms":   lensMS(layer.lens.encode),

		"setup.sim_new_ms": median(setups),

		"trace_overhead": ratio(traced, plain),
	}, nil
}

// addStats adds every counter of src into dst.
func addStats(dst, src *stats.Sim) {
	cp := *src
	dst.AddFrom(&cp)
}
